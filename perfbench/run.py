"""runexp benchmark: three workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload family-m8 --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer ones, taken from spans recorded
around calls into each layer (see ``spans.py``). Lines before it, each
starting with ``#``, repeat the metrics for people and give the machine
context and ``fail_ratio``.

The library is imported from ``src/`` next to this directory (or from
``--src``) and driven only through its public functions. Every output
is checked outside the timed region; a wrong output counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up is timed this many times, each in a fresh interpreter, and the
# median reported: a single import is at the mercy of the file cache and
# of the moment. Half the probes run before the ops and half after, so
# that none runs between timed ops and the median does not hang on one
# moment of a machine whose speed drifts.
SETUP_REPEATS = 10
# The host's speed drifts by a quarter and more within minutes (other
# tenants share its cores, caches and memory), far more than the
# program's own run-to-run noise. So each timed op and set-up probe is
# scaled by the speed of fixed reference work (reference.py), timed in
# slices between them: a reported time is the measured one times
# REFERENCE_S over the median of the nearest slices (two on each side),
# that is, the time on a host where one slice takes REFERENCE_S seconds.
# One slice alone is too noisy to scale by. The raw times are printed on
# "#" lines.
REFERENCE_S = 0.2
# Timed ops (pairs, when tracing) made even when one op outlasts --seconds.
MIN_OPS = 3
MIN_PAIRS = 2

OP = "bench.op"
SETUP = "bench.setup"

# n, run count and SHA-256 of the RunSet's (start, end, period) columns as
# little-endian int64, for the family members the workloads use.
EXPECTED_MEMBERS = {
    3: (461, 415, "67fa0d4e1edf7e351d3862bd5d397a6d2096a191e573d900f1558d55fd2f1aca"),
    4: (1751, 1607, "5b0e9637667bc593c7b55df3f75f683e00ad4e9608466a6374df94336e551911"),
    7: (95567, 88425, "0f024bf52c60b1c8249c0cb9f88a3a3dbd9b7956d413de87d685c01ee2459d10"),
    8: (362327, 335289, "0a4abb989224b82b580dd8b665d3049fff9387970a7d9aab92650fd6d21c448d"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "letters_per_s": "letters/s",
    "word_us_p50": "us",
    "word_us_p99": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "runs.find_runs.s": "s",
    "runs.find_runs.calls": "count",
    "runs.find_runs.letters": "count",
    "runs.find_runs.runs_out": "count",
    "runs.find_runs.lt256_us_p50": "us",
    "runs.find_runs.ge256_us_p50": "us",
    "runs.run_stats.s": "s",
    "runs.validate_run.s": "s",
    "runs.validate_run.calls": "count",
    "handles.verify_handle_properties.s": "s",
    "handles.verify_handle_properties.self_s": "s",
    "handles.handles_of_run.self_s": "s",
    "handles.handles_of_run.calls": "count",
    "handles.mass": "count",
    "periods.rotation_extremes.s": "s",
    "periods.rotation_extremes.calls": "count",
    "words.Word.factor.calls": "count",
    "families.generate_member.s": "s",
    "cli.main.self_s": "s",
    "layer.families.self_s": "s",
    "layer.words.self_s": "s",
    "layer.periods.self_s": "s",
    "layer.runs.self_s": "s",
    "layer.handles.self_s": "s",
    "layer.cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def load_runexp(src: Path):
    """Import runexp, with all its layer modules, from ``src``."""
    sys.path.insert(0, str(src))
    import runexp
    import runexp.cli
    import runexp.reference

    where = Path(runexp.__file__).resolve()
    if src not in where.parents:
        raise RuntimeError(f"runexp was imported from {where}, not from {src}")
    return runexp


def runset_digest(runs) -> str:
    import numpy as np

    cols = [np.asarray(c, dtype="<i8") for c in (runs.starts, runs.ends, runs.periods)]
    return hashlib.sha256(np.stack(cols).tobytes()).hexdigest()


def member_errors(rx, index: int, n: int, rho: int, sigma: Fraction, digest: str | None) -> list[str]:
    """Compare one family member's results with the published row and known counts."""
    ref = rx.reference.MAIN_FAMILY_REFERENCE[index - 1]
    exp_n, exp_rho, exp_digest = EXPECTED_MEMBERS[index]
    errors = []
    if n != ref.n or n != exp_n:
        errors.append(f"member {index}: n = {n}, expected {ref.n}")
    if rho != exp_rho:
        errors.append(f"member {index}: {rho} runs, expected {exp_rho}")
    if not rx.cli.sigma_cell_matches(sigma, ref.sigma):
        errors.append(f"member {index}: sigma {sigma} does not match the published {ref.sigma}")
    if n and not rx.cli.ratio_matches(Fraction(sigma, n), ref.sigma_over_n):
        errors.append(f"member {index}: sigma/n does not match the published {ref.sigma_over_n}")
    if digest is not None and digest != exp_digest:
        errors.append(f"member {index}: RunSet digest {digest} differs from the known one")
    return errors


class FamilyRuns:
    """find_runs + run_stats on one built-in family member (arrays engine)."""

    name = "family-m8"
    units_per_op = 1

    def __init__(self, tiny: bool):
        self.index = 4 if tiny else 8

    def setup(self, rx, seed: int) -> None:
        self.rx = rx
        self.word = rx.families.run_rich_word(self.index)
        self.letters = len(self.word)

    def op(self):
        runs = self.rx.runs.find_runs(self.word)
        return (runs, self.rx.runs.run_stats(self.word, runs)), None

    def check(self, out) -> list[str]:
        runs, stats = out
        return member_errors(self.rx, self.index, stats.n, len(runs), stats.sigma, runset_digest(runs))


class VerifyMember:
    """``runexp verify family:<i>`` in-process, stdout captured."""

    name = "verify-m7"
    units_per_op = 1

    def __init__(self, tiny: bool):
        self.index = 3 if tiny else 7

    def setup(self, rx, seed: int) -> None:
        self.rx = rx
        self.argv = ["verify", f"family:{self.index}"]
        self.letters = rx.reference.MAIN_FAMILY_REFERENCE[self.index - 1].n

    def op(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.rx.cli.main(self.argv)
        return (code, buf.getvalue()), None

    def check(self, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"verify exited with {code}"]
        report = json.loads(text)
        errors = [] if report["pass"] is True else ["verify reported pass = false"]
        errors += member_errors(
            self.rx, self.index, report["n"], report["rho"], Fraction(report["sigma_exact"]), None
        )
        return errors


class Corpus:
    """Many short seeded words: find_runs + run_stats on each, one pass per op.

    Lengths are log-uniform over 16..512, so about a fifth of the words
    reach the arrays engine (256 letters and up) and the rest take the
    Python engine; alphabets have 1 to 4 letters.
    """

    name = "corpus-short"

    def __init__(self, tiny: bool):
        self.size = 40 if tiny else 3000
        self.sample = 8 if tiny else 64
        self.units_per_op = self.size

    def setup(self, rx, seed: int) -> None:
        self.rx = rx
        rng = random.Random(seed)
        # Stratified draws: word k's log-length falls in the k-th of
        # `size` equal slices of the range and its alphabet size is
        # 1 + k % 4, so every seed gives nearly the same mix of lengths
        # and alphabets, and so nearly the same spread of word times;
        # seeds differ in the letters and the order of the words.
        lo, hi = math.log(16), math.log(512)
        shapes = [
            (round(math.exp(lo + (hi - lo) * (k + rng.random()) / self.size)), "abcd"[: 1 + k % 4])
            for k in range(self.size)
        ]
        rng.shuffle(shapes)
        self.words = [
            rx.words.word_from_text("".join(rng.choices(alphabet, k=n)), alphabet)
            for n, alphabet in shapes
        ]
        self.letters = sum(map(len, self.words))
        self.oracle_sample = sorted(rng.sample(range(self.size), self.sample))
        self.reference = None

    def op(self):
        find_runs, run_stats = self.rx.runs.find_runs, self.rx.runs.run_stats
        results = []
        times = []
        for w in self.words:
            t0 = perf_counter()
            runs = find_runs(w)
            stats = run_stats(w, runs)
            times.append(perf_counter() - t0)
            results.append((runs, stats))
        return results, times

    def check(self, results) -> list[str]:
        """The first pass must agree with the oracle on a seeded sample; later passes with the first."""
        if self.reference is not None:
            return [
                f"word {k}: result differs from the first pass"
                for k, (got, ref) in enumerate(zip(results, self.reference))
                if got[0] != ref[0] or got[1] != ref[1]
            ]
        self.reference = results
        errors = []
        for k in self.oracle_sample:
            w = self.words[k]
            runs, stats = results[k]
            if runs != self.rx.runs.find_runs_bruteforce(w):
                errors.append(f"word {k}: runs differ from the brute-force oracle")
            elif stats.sigma != sum((Fraction(r.length, r.p) for r in runs), Fraction(0)):
                errors.append(f"word {k}: run_stats sigma differs from the exponent sum")
        return errors


WORKLOADS = {w.name: w for w in (FamilyRuns, VerifyMember, Corpus)}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def recording(rec, root_name: str):
    return contextlib.nullcontext() if rec is None else rec.recording(root_name)


def timed_op(workload, rec=None):
    """One op, timed; with a recorder, traced under one root span."""
    gc.collect()
    with recording(rec, OP):
        t0 = perf_counter()
        out, word_times = workload.op()
        wall = perf_counter() - t0
    return out, wall, word_times or [wall]


def checked_op(workload, tally: Tally, rec=None):
    """Run, time and check one op; return (wall, word_times) or None if it raised."""
    tally.attempted += workload.units_per_op
    try:
        out, wall, word_times = timed_op(workload, rec)
    except Exception:
        traceback.print_exc()
        tally.failed += workload.units_per_op
        return None
    try:
        errors = workload.check(out)
    except (ValueError, KeyError, TypeError) as exc:  # malformed output
        errors = [f"output could not be checked: {exc!r}"]
    for line in errors[:5]:
        print(f"check failed: {line}", file=sys.stderr)
    tally.failed += min(len(errors), workload.units_per_op)
    return wall, word_times


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q of values at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def probe_setup(args) -> float:
    """Time one set-up in a fresh interpreter; see ``timed_setup``."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--src", str(args.src),
    ]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def timed_setup(args, workload, rec=None):
    """Import runexp and build the workload's inputs; return (seconds, runexp)."""
    t0 = perf_counter()
    rx = load_runexp(args.src)
    with recording(rec, SETUP):
        workload.setup(rx, args.seed)
    return perf_counter() - t0, rx


class Reference:
    """The reference work of ``reference.py``, in a helper process that waits between slices."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.times: list[float] = []
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def slice(self) -> float:
        """Run one slice and return its seconds."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference work ended with {self.proc.wait()}")
        self.times.append(float(line))
        return self.times[-1]

    def scaled(self, measurements) -> list[tuple[object, float]]:
        """Take a slice before each of ``measurements`` and after the last.

        ``measurements`` is an iterator that measures when asked for its
        next item; a None item (a failed attempt) is dropped. Return each
        item with the factor that takes times measured in it to the
        reference host: REFERENCE_S over the median of the nearest slices.
        """
        slices = [self.slice()]
        items = []
        for item in measurements:
            slices.append(self.slice())
            if item is not None:
                items.append((len(slices) - 2, item))  # between slices k and k + 1
        return [(item, REFERENCE_S / statistics.median(slices[max(k - 1, 0):k + 3]))
                for k, item in items]


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_ops(args, workload, tally: Tally):
    """Yield timed ops, each (wall, word times) or None if it failed, until --seconds would pass."""
    walls: list[float] = []
    deadline = perf_counter() + args.seconds
    ops = 0
    while ops < MIN_OPS or (walls and perf_counter() + statistics.median(walls) <= deadline):
        ops += 1
        done = checked_op(workload, tally)
        if done is not None:
            walls.append(done[0])
        yield done


def end_to_end(args, workload, tally: Tally) -> dict[str, float]:
    with Reference() as ref:
        probes = ref.scaled(probe_setup(args) for _ in range(SETUP_REPEATS // 2))
        timed_setup(args, workload)
        checked_op(workload, tally)  # warm-up: caches fill, lazy set-up finishes
        ops = ref.scaled(timed_ops(args, workload, tally))
        probes += ref.scaled(probe_setup(args) for _ in range(SETUP_REPEATS - len(probes)))
    if not ops:
        raise RuntimeError("every timed op failed")
    walls = [wall * factor for (wall, _), factor in ops]
    word_times = [t * factor for (_, times), factor in ops for t in times]
    wall = statistics.median(walls)
    print(f"# ops {len(walls)} timed + 1 warm-up; word latency samples {len(word_times)}")
    print("# op walls s, raw " + " ".join(f"{w:.4f}" for (w, _), _ in ops))
    print("# op walls s, scaled " + " ".join(f"{w:.4f}" for w in walls))
    print("# set-up probes s, raw " + " ".join(f"{t:.4f}" for t, _ in probes))
    print(f"# reference slices s, scaled to {REFERENCE_S} s: "
          + " ".join(f"{t:.4f}" for t in ref.times))
    return {
        "setup_s": statistics.median(t * factor for t, factor in probes),
        "wall_s": wall,
        "letters_per_s": workload.letters / wall,
        "word_us_p50": 1e6 * statistics.median(word_times),
        "word_us_p99": 1e6 * percentile(word_times, 0.99),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(args, workload, tally: Tally) -> dict[str, float]:
    import numpy as np
    from spans import LAYERS, Recorder, call_durations, per_op_totals, span_cost

    rec = Recorder()
    timed_setup(args, workload, rec)
    checked_op(workload, tally)  # warm-up, untraced
    walls: dict[bool, list[float]] = {False: [], True: []}
    deadline = perf_counter() + args.seconds
    pairs = 0
    while pairs < MIN_PAIRS or (
        perf_counter() + sum(statistics.median(v) for v in walls.values()) <= deadline
    ):
        # Alternate which side of the pair goes first.
        for traced in (False, True) if pairs % 2 == 0 else (True, False):
            done = checked_op(workload, tally, rec if traced else None)
            if done is None:
                raise RuntimeError("an op failed; per-layer figures would be incomplete")
            walls[traced].append(done[0])
        pairs += 1
    print(f"# pairs {pairs} (untraced, traced) + 1 warm-up")
    OUT.mkdir(exist_ok=True)
    rec.save(OUT / f"spans-{workload.name}.npz")

    cost = span_cost()
    print(f"# span cost {1e6 * cost:.3f} us, taken off each parent's self time per child span")
    ops = per_op_totals(rec, OP, cost)
    setup = per_op_totals(rec, SETUP, cost)

    def med(name: str, col: str) -> float:
        return float(np.median(ops[name][col]))

    def count(name: str, col: str = "calls") -> int:
        return int(round(med(name, col)))

    durations, sizes = call_durations(rec, "runs.find_runs", OP)

    def us_p50(sel) -> float:
        return 1e6 * float(np.median(durations[sel])) if sel.any() else 0.0

    def layer_self(layer: str) -> float:
        per_op = sum(v["self_s"] for name, v in ops.items() if name.startswith(layer + "."))
        return float(np.median(per_op))

    return {
        "runs.find_runs.s": med("runs.find_runs", "s"),
        "runs.find_runs.calls": count("runs.find_runs"),
        "runs.find_runs.letters": count("runs.find_runs", "size_in"),
        "runs.find_runs.runs_out": count("runs.find_runs", "size_out"),
        "runs.find_runs.lt256_us_p50": us_p50(sizes < 256),
        "runs.find_runs.ge256_us_p50": us_p50(sizes >= 256),
        "runs.run_stats.s": med("runs.run_stats", "s"),
        "runs.validate_run.s": med("runs.validate_run", "s"),
        "runs.validate_run.calls": count("runs.validate_run"),
        "handles.verify_handle_properties.s": med("handles.verify_handle_properties", "s"),
        "handles.verify_handle_properties.self_s": med("handles.verify_handle_properties", "self_s"),
        "handles.handles_of_run.self_s": med("handles.handles_of_run", "self_s"),
        "handles.handles_of_run.calls": count("handles.handles_of_run"),
        "handles.mass": count("handles.verify_handle_properties", "size_out"),
        "periods.rotation_extremes.s": med("periods.rotation_extremes", "s"),
        "periods.rotation_extremes.calls": count("periods.rotation_extremes"),
        "words.Word.factor.calls": count("words.Word.factor"),
        # set-up plus one op: the family word is built in set-up, except
        # by the verify verb, which regenerates it on every op
        "families.generate_member.s": float(setup["families.generate_member"]["s"].sum())
        + med("families.generate_member", "s"),
        "cli.main.self_s": med("cli.main", "self_s"),
        **{f"layer.{layer}.self_s": layer_self(layer) for layer in LAYERS},
        "trace.spans": int(round(float(np.median(sum(v["calls"] for v in ops.values()))))),
        "trace.overhead_ratio": statistics.median(walls[True]) / statistics.median(walls[False]),
    }


def machine_context() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics from spans")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the runexp package (default: src/ of this checkout)")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: family member 4, verify member 3, 40 corpus words")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.src = args.src.resolve()
    if not (args.src / "runexp" / "__init__.py").is_file():
        print(f"error: no runexp package under {args.src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.tiny)
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(args, workload)[0]}))
        return 0

    tally = Tally()
    if args.trace:
        metrics, units = per_layer(args, workload, tally), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(args, workload, tally), END_TO_END_UNITS
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds:g}")
    print(f"# context {json.dumps(machine_context())}")
    print(f"# fail_ratio {tally.failed / tally.attempted:g} ratio ({tally.failed}/{tally.attempted})")
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
