"""Command-line front end.

Verbs: generate (emit a family word), analyze (run statistics), runs
(dump the run listing), verify (oracle comparison + handle checks +
bound checks, JSON report), table3 (reproduce the built-in family
table against embedded reference values), certify-lower-bound (each run
checked, then sigma/n > target exactly, on a family word power).

Every input is admitted by one memory rule before it is built or read:
its letter count (a family member's predicted length, a word file's
size, or a member's length times the power) times BYTES_PER_LETTER must
fit in physical memory. A refused input exits 2.

Exit codes: 0 all good, 1 a verification or comparison failed,
2 usage or I/O problems, a refused input, or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence, TextIO

import numpy as np

from .families import builtin_family, count_text, generate_member, load_family, predicted_length
from .handles import verify_handle_properties
from .reference import MAIN_FAMILY_REFERENCE
from .runs import (
    BRUTE_FORCE_CAP,
    RunSet,
    RunStats,
    find_runs,
    find_runs_bruteforce,
    fraction_to_decimal,
    run_stats,
    validate_runs,
)
from .words import Word, power, read_word_file, word_from_text, write_word_file

__all__ = ["Thresholds", "main"]

# Bound on the max RSS per letter of any verb and listing flag, import
# baseline included (getrusage): `verify`, the heaviest, reaches about 134 on
# built-in member 9 and 116-123 on member 10, by heap layout; `analyze` 97 there.
BYTES_PER_LETTER = 150

RATIO_TOLERANCE = Fraction(1, 10_000)


class UsageError(Exception):
    """Bad invocation or refused input; reported on stderr, exit code 2."""


@dataclass(frozen=True)
class Thresholds:
    """Published bound constants; fixed unless explicitly overridden."""

    lower_bound_target: Fraction = Fraction("2.035")
    runs_bound: Fraction = Fraction("1.029")
    cubic_runs_bound: Fraction = Fraction("0.5")
    sigma_bound: Fraction = Fraction("4.1")
    sigma_cubic_bound: Fraction = Fraction("2.5")


# The thresholds each verb reads, and so the only ones it lets --threshold set.
VERIFY_THRESHOLDS = ("runs_bound", "cubic_runs_bound", "sigma_bound", "sigma_cubic_bound")
CERTIFY_THRESHOLDS = ("lower_bound_target",)


def ratio_string(num: int | Fraction, den: int, digits: int) -> str:
    if den == 0:
        return "-"
    return fraction_to_decimal(Fraction(num, den), digits)


def sigma_cell_matches(exact: Fraction, published: str) -> bool:
    """Accept either half-up rounding or truncation of the exact value."""
    return published in (
        fraction_to_decimal(exact, 2),
        fraction_to_decimal(exact, 2, rounding="truncate"),
    )


def ratio_matches(exact: Fraction, published: str) -> bool:
    return abs(exact - Fraction(published)) <= RATIO_TOLERANCE


# ---------------------------------------------------------------------------
# output emitters
# ---------------------------------------------------------------------------

def emit_markdown(headers: Sequence[str], rows: Sequence[Sequence[str]], out: TextIO) -> None:
    out.write("| " + " | ".join(headers) + " |\n")
    out.write("|" + "|".join(" --- " for _ in headers) + "|\n")
    for row in rows:
        out.write("| " + " | ".join(row) + " |\n")


def emit_csv(headers: Sequence[str], rows: Sequence[Sequence[str]], out: TextIO) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)


def emit_table(fmt: str, headers: Sequence[str], rows: Sequence[Sequence[str]], out: TextIO) -> None:
    if fmt == "md":
        emit_markdown(headers, rows, out)
    elif fmt == "csv":
        emit_csv(headers, rows, out)
    elif fmt == "json":
        json.dump([dict(zip(headers, row)) for row in rows], out, indent=2)
        out.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------

def physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _mb(nbytes: int) -> str:
    """``nbytes`` in MB to one decimal, rounded half up in integers, so that
    no byte count is too large to print."""
    tenths = (nbytes * 10 + 2**19) // 2**20
    if tenths >= 10**31:
        return count_text(tenths // 10)
    return f"{tenths // 10:,}.{tenths % 10}"


def admit(letters: int, what: str) -> None:
    """Refuse, before it is built, an input projected not to fit in memory."""
    projected = letters * BYTES_PER_LETTER
    available = physical_memory()
    if projected > available:
        raise UsageError(
            f"{what} has {count_text(letters)} letters: projected {_mb(projected)} MB "
            f"({BYTES_PER_LETTER} B/letter) exceeds the memory cap, the "
            f"{_mb(available)} MB of physical memory"
        )


def _family_member(index: int, spec_path: str | None, copies: int = 1) -> tuple[Word, str]:
    """Member ``index`` of the built-in family or of the spec file,
    admitted at ``copies`` times its predicted length before it is built."""
    spec = builtin_family() if spec_path is None else load_family(spec_path)
    label = f"{spec.name}:{index}"
    what = label if copies == 1 else f"{label} to the power {count_text(copies)}"
    admit(predicted_length(spec, index) * copies, what)
    return generate_member(spec, index), label


def resolve_word(arg: str, *, family_spec: str | None) -> tuple[Word, str]:
    """Turn an input argument into a word.

    `family:N` picks member N of the built-in family, or of the file given
    with --family-spec, which other inputs refuse. An existing path is read
    as a word file; anything else without a path separator is a literal word.
    """
    if arg.startswith("family:"):
        try:
            index = int(arg.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad family reference {arg!r}, expected family:<integer>") from None
        return _family_member(index, family_spec)
    if family_spec is not None:
        raise UsageError(f"--family-spec applies only to family:<index> inputs, got {arg!r}")
    if os.path.exists(arg):
        admit(os.path.getsize(arg), f"word file {arg}")
        return read_word_file(arg), arg
    if os.sep in arg:
        raise OSError(f"no such file: {arg}")
    return word_from_text(arg, set(arg)), arg


def _parse_threshold_overrides(pairs: Sequence[str] | None, names: Sequence[str]) -> Thresholds:
    """The defaults with each NAME=VALUE of ``pairs`` applied; NAME must be
    one of ``names``, the thresholds the verb reads."""
    thresholds = Thresholds()
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        try:
            if not sep or name not in names:
                raise ValueError
            thresholds = replace(thresholds, **{name: Fraction(value)})
        except (ValueError, ZeroDivisionError):  # Fraction("1/0") divides by zero
            raise ValueError(
                f"bad threshold override {pair!r}; expected NAME=VALUE with NAME in "
                + ", ".join(sorted(names))
            ) from None
    return thresholds


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    word, _ = _family_member(args.index, args.family_spec)
    if args.output:
        write_word_file(word, args.output)
    else:
        sys.stdout.write(word.text)
        sys.stdout.write("\n")
    return 0


def _stats_cells(stats: RunStats) -> dict[str, str]:
    return {
        "n": str(stats.n),
        "rho": str(stats.rho),
        "rho_over_n": ratio_string(stats.rho, stats.n, 4),
        "sigma_exact": str(stats.sigma),
        "sigma": fraction_to_decimal(stats.sigma, 2),
        "sigma_over_n": ratio_string(stats.sigma, stats.n, 4),
        "rho_cubic": str(stats.rho_cubic),
        "sigma_cubic_exact": str(stats.sigma_cubic),
        "sigma_cubic": fraction_to_decimal(stats.sigma_cubic, 2),
    }


def _run_rows(runs: RunSet) -> Iterator[tuple[int, ...]]:
    """One row per run: i, j, p, length and the reduced exponent's numerator
    and denominator, all reduced at once with one ``np.gcd`` over the columns."""
    length = runs.ends - runs.starts + 1
    g = np.gcd(length, runs.periods)
    return zip(*map(memoryview, (runs.starts, runs.ends, runs.periods, length, length // g, runs.periods // g)))


def _write_run_listing(runs: RunSet, out: TextIO) -> None:
    out.writelines("%d\t%d\t%d\t%d\t%d/%d\n" % row for row in _run_rows(runs))


def _write_json_with_runs(payload: dict, runs: RunSet, out: TextIO) -> None:
    """``json.dump`` of ``payload`` plus a last key "runs", the rows of
    :func:`_run_rows` as lists, with ``indent=2``; the rows are written one at
    a time instead of being built as one list."""
    out.write(json.dumps(payload, indent=2)[:-2])  # all but the closing "\n}"
    out.write(',\n  "runs": [')
    sep = "\n"
    row_text = '    [\n      %d,\n      %d,\n      %d,\n      %d,\n      "%d/%d"\n    ]'
    for row in _run_rows(runs):
        out.write(sep + row_text % row)
        sep = ",\n"
    out.write("\n  ]\n}" if len(runs) else "]\n}")


def cmd_analyze(args: argparse.Namespace) -> int:
    word, label = resolve_word(args.input, family_spec=args.family_spec)
    runs = find_runs(word)
    stats = run_stats(word, runs)
    cells = _stats_cells(stats)
    out = sys.stdout
    if args.format == "json":
        # counts as numbers, exact/rendered values as strings
        payload: dict = {"word": label, **cells}
        payload.update(n=stats.n, rho=stats.rho, rho_cubic=stats.rho_cubic)
        if args.runs:
            _write_json_with_runs(payload, runs, out)
        else:
            json.dump(payload, out, indent=2)
        out.write("\n")
        return 0
    if args.format == "md":
        emit_markdown(["field", "value"], [["word", label]] + [[k, v] for k, v in cells.items()], out)
    else:
        emit_csv(["word", *cells.keys()], [[label, *cells.values()]], out)
    if args.runs:
        out.write("\n")
        _write_run_listing(runs, out)
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    word, _ = resolve_word(args.input, family_spec=args.family_spec)
    runs = find_runs(word)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            _write_run_listing(runs, fh)
    else:
        _write_run_listing(runs, sys.stdout)
    return 0


def bound_checks(stats: RunStats, thresholds: Thresholds) -> dict[str, dict]:
    """Exact-rational instance checks of the published bounds, which speak of
    n >= 1: at n = 0, where every count and sum is 0, all are met."""
    n = stats.n
    checks = {
        "rho_le_runs_bound_n": (
            thresholds.runs_bound,
            Fraction(stats.rho) <= thresholds.runs_bound * n,
        ),
        "sigma_lt_sigma_bound_n": (
            thresholds.sigma_bound,
            not n or stats.sigma < thresholds.sigma_bound * n,
        ),
        "rho_cubic_le_cubic_runs_bound_n": (
            thresholds.cubic_runs_bound,
            Fraction(stats.rho_cubic) <= thresholds.cubic_runs_bound * n,
        ),
        "sigma_cubic_lt_sigma_cubic_bound_n": (
            thresholds.sigma_cubic_bound,
            not n or stats.sigma_cubic < thresholds.sigma_cubic_bound * n,
        ),
        "sigma_lt_3rho_plus_n": (None, not n or stats.sigma < 3 * stats.rho + n),
    }
    return {
        name: {"limit": None if lim is None else str(lim), "ok": bool(ok)}
        for name, (lim, ok) in checks.items()
    }


def cmd_verify(args: argparse.Namespace) -> int:
    thresholds = _parse_threshold_overrides(args.threshold, VERIFY_THRESHOLDS)
    word, label = resolve_word(args.input, family_spec=args.family_spec)
    try:
        handle_report = verify_handle_properties(word)
    except ValueError as exc:  # a run that breaks the definition: no other check stands on it
        print(json.dumps({"word": label, "n": len(word), "invalid_run": str(exc), "pass": False}, indent=2))
        return 1
    runs = handle_report.runs
    stats = run_stats(word, runs)

    oracle: dict = {"cap": BRUTE_FORCE_CAP, "checked": False, "match": None}
    if len(word) <= BRUTE_FORCE_CAP:
        oracle["checked"] = True
        oracle["match"] = find_runs_bruteforce(word) == runs

    bounds = bound_checks(stats, thresholds)

    ok = (
        (oracle["match"] is not False)
        and handle_report.all_ok
        and all(entry["ok"] for entry in bounds.values())
    )
    payload = {
        "word": label,
        "n": stats.n,
        "rho": stats.rho,
        "sigma_exact": str(stats.sigma),
        "oracle": oracle,
        "handles": handle_report.as_json_dict(),
        "handles_sum_bound_ok": handle_report.sum_bound_ok,
        "bounds": bounds,
        "pass": bool(ok),
    }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if ok else 1


def cmd_table3(args: argparse.Namespace) -> int:
    if not 1 <= args.max_i <= len(MAIN_FAMILY_REFERENCE):
        raise UsageError(f"--max-i must be in 1..{len(MAIN_FAMILY_REFERENCE)}, got {args.max_i}")
    headers = ["i", "n", "rho", "rho_over_n", "sigma", "sigma_exact", "sigma_over_n"]
    rows: list[list[str]] = []
    mismatches: list[str] = []
    spec = builtin_family()
    # Members grow with the index: admitting the last one admits them all.
    admit(predicted_length(spec, args.max_i), f"{spec.name}:{args.max_i}")
    for ref in MAIN_FAMILY_REFERENCE[: args.max_i]:
        word = generate_member(spec, ref.index)
        stats = run_stats(word, find_runs(word))
        cells = _stats_cells(stats)
        rows.append([str(ref.index), *(cells[h] for h in headers[1:])])
        if stats.n != ref.n:
            mismatches.append(f"i={ref.index}: |w| computed {stats.n}, published {ref.n}")
        if not sigma_cell_matches(stats.sigma, ref.sigma):
            mismatches.append(
                f"i={ref.index}: sigma computed {cells['sigma']}, published {ref.sigma}"
            )
        if stats.n and not ratio_matches(Fraction(stats.sigma, stats.n), ref.sigma_over_n):
            mismatches.append(
                f"i={ref.index}: sigma/n computed {cells['sigma_over_n']}, "
                f"published {ref.sigma_over_n}"
            )
    emit_table(args.format, headers, rows, sys.stdout)
    if mismatches:
        for line in mismatches:
            print(f"mismatch: {line}", file=sys.stderr)
        return 1
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    target = _parse_threshold_overrides(args.threshold, CERTIFY_THRESHOLDS).lower_bound_target
    if args.power < 1:
        raise UsageError(f"--power must be >= 1, got {count_text(args.power)}")
    member, _ = _family_member(args.index, None, copies=args.power)
    word = power(member, args.power)
    runs = find_runs(word)
    stats = run_stats(word, runs)
    ratio = Fraction(stats.sigma, stats.n)
    verdict = ratio > target
    print(f"word: run-rich member {args.index} to the power {args.power}")
    print(f"n: {stats.n}")
    print(f"sigma: {stats.sigma}")
    print(f"sigma/n: {ratio} = {fraction_to_decimal(ratio, 6)} (6 decimals)")
    print(f"target: {target} = {fraction_to_decimal(target, 6)} (6 decimals)")
    try:
        validate_runs(word, runs)
    except ValueError as exc:  # the sum is not one over runs: no verdict on it holds
        print(f"verdict: FAIL ({exc})")
        return 1
    print(f"runs checked against the definition: {len(runs):,}")
    print(f"verdict: {'PASS' if verdict else 'FAIL'} (exact comparison sigma/n > target)")
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="word file path, literal word, or family:<index>")
    sub.add_argument("--family-spec", metavar="FILE", help="family spec file backing family:<index>")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="runexp",
        description="Enumerate runs (maximal repetitions) and verify exponent-sum facts.",
        epilog=f"Inputs projected past physical memory at {BYTES_PER_LETTER} B/letter "
        "are refused with exit status 2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a family word")
    p.add_argument("index", type=int, help="family member index")
    p.add_argument("--family-spec", metavar="FILE", help="family spec file (default: built-in family)")
    p.add_argument("-o", "--output", metavar="FILE", help="write the word here instead of stdout")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="run statistics for one word")
    _add_input_options(p)
    p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p.add_argument("--runs", action="store_true", help="also dump the run listing")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("runs", help="dump the run listing of one word")
    _add_input_options(p)
    p.add_argument("-o", "--output", metavar="FILE", help="write the listing here instead of stdout")
    p.set_defaults(func=cmd_runs)

    p = sub.add_parser("verify", help="oracle + handle + bound checks, JSON report")
    _add_input_options(p)
    p.add_argument("--threshold", action="append", metavar="NAME=VALUE",
                   help=f"override a bound constant, NAME in {', '.join(VERIFY_THRESHOLDS)} (repeatable)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table3", help="reproduce the built-in family table")
    p.add_argument("--max-i", type=int, default=8, metavar="N", help="last index (default 8)")
    p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p.set_defaults(func=cmd_table3)

    p = sub.add_parser("certify-lower-bound",
                       help="exact check that sigma/n beats the target on a family word power")
    p.add_argument("--index", type=int, default=8, metavar="I", help="family index (default 8)")
    p.add_argument("--power", type=int, default=1, metavar="K", help="repeat count (default 1)")
    p.add_argument("--threshold", action="append", metavar="NAME=VALUE",
                   help="override the target, e.g. lower_bound_target=2.03 (the one NAME; repeatable)")
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large for this machine", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
