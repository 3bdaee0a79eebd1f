"""Acceptance gate: one test per agreed criterion, each printing a verdict.

Criteria 1-5 are self-contained. Criterion 6 is conditional by design:
it compares against published measurements of two externally
constructed families, so it runs only when RUNEXP_EXTERNAL_WORDS names
a directory with the word files (x1.txt..x9.txt, y4.txt, y8.txt, ...,
y40.txt) and skips otherwise.
"""

import itertools
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from runexp import runs as runs_module
from runexp.cli import LOWER_BOUND_TARGET, PUBLISHED_BOUNDS, ratio_matches, sigma_cell_matches
from runexp.families import run_rich_word
from runexp.handles import verify_handle_properties
from runexp.reference import EXTERNAL_FAMILY_REFERENCE, MAIN_FAMILY_REFERENCE
from runexp.runs import RunSet, find_runs, find_runs_bruteforce, run_stats
from runexp.words import power, read_word_file, word_from_text

BINARY_MAX_LEN = 16
TERNARY_COUNT = 1000
TERNARY_MAX_LEN = 300
TERNARY_SEED = 20260815

TABLE_BUDGET_S = 60.0
ORACLE_BUDGET_S = 300.0


def _verdict(num: int, name: str, problems: list[str], detail: str) -> None:
    ok = not problems
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line + "; problems: " + "; ".join(problems[:10])


@pytest.fixture(scope="module")
def binary_corpus() -> list[str]:
    """Every binary word of length 2..16, first letter fixed to 'a'.

    Runs are invariant under any letter bijection, so fixing the first
    letter keeps the corpus exhaustive over binary words up to
    relabeling while sizing it at 2^16 - 2 entries (the trivially
    runless lengths 0 and 1 are covered by other tests).
    """
    texts = []
    for length in range(2, BINARY_MAX_LEN + 1):
        for tail in itertools.product("ab", repeat=length - 1):
            texts.append("a" + "".join(tail))
    return texts


@pytest.fixture(scope="module")
def ternary_corpus() -> list[str]:
    rng = random.Random(TERNARY_SEED)
    return [
        "".join(rng.choice("abc") for _ in range(rng.randint(1, TERNARY_MAX_LEN)))
        for _ in range(TERNARY_COUNT)
    ]


def test_criterion_1_table_reproduction():
    """Members 1..8: exact lengths, 2-decimal sigma, 4-decimal ratio, < 60 s."""
    problems = []
    start = time.monotonic()
    for ref in MAIN_FAMILY_REFERENCE[:8]:
        word = run_rich_word(ref.index)
        stats = run_stats(word, find_runs(word))
        if stats.n != ref.n:
            problems.append(f"i={ref.index}: n {stats.n} != {ref.n}")
        if not sigma_cell_matches(stats.sigma, ref.sigma):
            problems.append(f"i={ref.index}: sigma does not render to {ref.sigma}")
        if not ratio_matches(Fraction(stats.sigma, stats.n), ref.sigma_over_n):
            problems.append(f"i={ref.index}: sigma/n not within 0.0001 of {ref.sigma_over_n}")
    elapsed = time.monotonic() - start
    if elapsed >= TABLE_BUDGET_S:
        problems.append(f"took {elapsed:.1f}s, budget {TABLE_BUDGET_S:.0f}s")
    _verdict(1, "table reproduction i=1..8", problems,
             f"8 rows matched exactly in {elapsed:.1f}s (budget {TABLE_BUDGET_S:.0f}s)")


def test_criterion_2_lower_bound_certificate():
    """sigma/n > 2.035 for member 8 and its square, by exact comparison."""
    target = LOWER_BOUND_TARGET
    problems = []
    details = []
    base = run_rich_word(8)
    for label, word in (("member 8", base), ("member 8 squared", power(base, 2))):
        stats = run_stats(word, find_runs(word))
        ratio = Fraction(stats.sigma, stats.n)
        details.append(f"{label}: sigma/n = {float(ratio):.6f}")
        if not ratio > target:
            problems.append(f"{label}: {ratio} <= {target}")
    _verdict(2, "exact lower-bound certificate", problems,
             "; ".join(details) + f"; both > {target}")


def test_criterion_3_oracle_equivalence(binary_corpus, ternary_corpus):
    """Fast enumeration (both backends) equals the definition scan, < 5 min."""
    problems = []
    start = time.monotonic()
    checked = 0
    for text, alphabet in itertools.chain(
        ((t, "ab") for t in binary_corpus), ((t, "abc") for t in ternary_corpus)
    ):
        word = word_from_text(text, alphabet)
        expected = find_runs_bruteforce(word)
        for name, engine in (("python", runs_module._runs_python), ("arrays", runs_module._runs_arrays)):
            cols = engine(word.data)
            starts, ends, periods = cols if name == "python" else cols[0]
            if RunSet(starts + 1, ends + 1, periods) != expected:
                problems.append(f"{name} engine disagrees on {text[:40]!r}")
        checked += 1
        if len(problems) > 10:
            break
    elapsed = time.monotonic() - start
    if elapsed >= ORACLE_BUDGET_S:
        problems.append(f"took {elapsed:.1f}s, budget {ORACLE_BUDGET_S:.0f}s")
    _verdict(3, "oracle equivalence", problems,
             f"{checked} words, both backends, in {elapsed:.1f}s (budget {ORACLE_BUDGET_S:.0f}s)")


def test_criterion_4_handle_suite(binary_corpus, ternary_corpus):
    """Handle checks hold with zero failures on the corpus plus members 1..6."""
    problems = []
    words = itertools.chain(
        (word_from_text(t, "ab") for t in binary_corpus),
        (word_from_text(t, "abc") for t in ternary_corpus),
        (run_rich_word(i) for i in range(1, 7)),
    )
    checked_words = 0
    checked_runs = 0
    for word in words:
        report = verify_handle_properties(word)
        checked_words += 1
        checked_runs += report.rho
        if not report.disjoint:
            problems.append(f"overlap at n={report.n}")
        if not report.case_a_iff_p1:
            problems.append(f"case dichotomy broken at n={report.n}")
        if report.size_bound_failures:
            problems.append(f"size bounds broken at n={report.n}: {report.size_bound_failures[:3]}")
        if not report.sum_bound_ok:
            problems.append(f"A+B > n-1 at n={report.n}")
        if len(problems) > 10:
            break
    _verdict(4, "handle property suite", problems,
             f"{checked_words} words / {checked_runs} runs, zero failures")


def test_criterion_5_bound_sanity(binary_corpus, ternary_corpus):
    """Published bounds hold exactly on every analyzed word."""
    runs_bound, sigma_bound, cubic_runs_bound, sigma_cubic_bound = (
        PUBLISHED_BOUNDS[name][0]
        for name in ("rho_le_runs_bound_n", "sigma_lt_sigma_bound_n",
                     "rho_cubic_le_cubic_runs_bound_n", "sigma_cubic_lt_sigma_cubic_bound_n")
    )
    problems = []
    words = itertools.chain(
        (word_from_text(t, "ab") for t in binary_corpus),
        (word_from_text(t, "abc") for t in ternary_corpus),
        (run_rich_word(i) for i in range(1, 9)),
    )
    checked = 0
    for word in words:
        stats = run_stats(word, find_runs(word))
        n = stats.n
        if not Fraction(stats.rho) <= runs_bound * n:
            problems.append(f"rho > {runs_bound}n at n={n}")
        if not stats.sigma < sigma_bound * n:
            problems.append(f"sigma >= {sigma_bound}n at n={n}")
        if not Fraction(stats.rho_cubic) <= cubic_runs_bound * n:
            problems.append(f"rho_cubic > {cubic_runs_bound}n at n={n}")
        if not stats.sigma_cubic < sigma_cubic_bound * n:
            problems.append(f"sigma_cubic >= {sigma_cubic_bound}n at n={n}")
        if not stats.sigma < 3 * stats.rho + n:
            problems.append(f"sigma >= 3 rho + n at n={n}")
        checked += 1
        if len(problems) > 10:
            break
    _verdict(5, "bound sanity", problems,
             f"{checked} words satisfy all five inequalities exactly")


def test_criterion_6_external_family_tables():
    """Conditional: published ratio columns for externally supplied words.

    The two cited families cannot be generated here (their
    constructions are defined elsewhere), so this check activates only
    when word files are provided.
    """
    root = os.environ.get("RUNEXP_EXTERNAL_WORDS")
    if not root:
        pytest.skip(
            "conditional criterion: set RUNEXP_EXTERNAL_WORDS to a directory "
            "containing x<i>.txt / y<i>.txt word files to activate"
        )
    directory = Path(root)
    problems = []
    compared = 0
    for key, rows in EXTERNAL_FAMILY_REFERENCE.items():
        for ref in rows:
            path = directory / f"{key}{ref.index}.txt"
            if not path.exists():
                continue
            word = read_word_file(path)
            stats = run_stats(word, find_runs(word))
            compared += 1
            label = f"{key}{ref.index}"
            if stats.n != ref.n:
                problems.append(f"{label}: n {stats.n} != published {ref.n}")
                continue
            if ref.rho_over_n is not None and not ratio_matches(
                Fraction(stats.rho, stats.n), ref.rho_over_n
            ):
                problems.append(f"{label}: rho/n not within 0.0001 of {ref.rho_over_n}")
            if not ratio_matches(Fraction(stats.sigma, stats.n), ref.sigma_over_n):
                problems.append(f"{label}: sigma/n not within 0.0001 of {ref.sigma_over_n}")
    if compared == 0:
        pytest.skip(f"no x<i>.txt / y<i>.txt files found under {directory}")
    _verdict(6, "external family tables", problems,
             f"{compared} supplied words matched the published ratio columns")


class TestCriterion6Machinery:
    """The conditional comparison works once word files are supplied.

    Uses a synthetic stand-in whose measurements happen to equal the
    first published x row (n=6, two runs of exponent 2), not the real
    externally constructed word.
    """

    def test_matching_word_accepted(self, monkeypatch, tmp_path, capsys):
        (tmp_path / "x1.txt").write_text("aabbab\n")
        monkeypatch.setenv("RUNEXP_EXTERNAL_WORDS", str(tmp_path))
        test_criterion_6_external_family_tables()

    def test_mismatching_word_rejected(self, monkeypatch, tmp_path, capsys):
        (tmp_path / "x1.txt").write_text("aaaaaa\n")
        monkeypatch.setenv("RUNEXP_EXTERNAL_WORDS", str(tmp_path))
        with pytest.raises(AssertionError, match="rho/n"):
            test_criterion_6_external_family_tables()

    def test_empty_directory_skips(self, monkeypatch, tmp_path):
        monkeypatch.setenv("RUNEXP_EXTERNAL_WORDS", str(tmp_path))
        with pytest.raises(pytest.skip.Exception, match="no x<i>"):
            test_criterion_6_external_family_tables()
