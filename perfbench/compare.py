"""Compare benchmark results of a parent and a change, one row per workload.

Collect alternating pairs with this checkout's benchmark code run
against two source trees (each a repository root holding ``src/``):

    python3 perfbench/compare.py collect PARENT_ROOT CHANGE_ROOT --out DIR

Pair k runs both sides with seed ``--seed + k``; even pairs run the
parent first, odd pairs the change. Every run is untraced and lasts
the ``run_seconds`` of ``BENCHMARK.json``. Results are appended to
``DIR/parent.jsonl`` and ``DIR/change.jsonl``. Then judge them:

    python3 perfbench/compare.py judge DIR/parent.jsonl DIR/change.jsonl

For every end-to-end metric and workload the judgement is one of:

- ``gain``: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither side), its median is better than the
  parent's by more than the parent's interquartile range, and it failed
  no more ops than the parent;
- ``REGRESSION``: the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json`` (a share of the
  parent's median);
- ``unresolved``: the run-to-run spread (interquartile range over
  median, the wider of the two sides) exceeds the bound, and not every
  run of the change reads better than every run of the parent;
- ``ok``: none of the above.

Each cell also gives both sides' spread (interquartile range over
median) against the bound. To check that the benchmark itself is
steady, collect one tree against itself and judge: two sets of the same
code should come out ``ok`` on every metric.

    python3 perfbench/compare.py collect ROOT ROOT --out DIR
    python3 perfbench/compare.py judge DIR/parent.jsonl DIR/change.jsonl
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = HERE.parent / "BENCHMARK.json"

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE = 0.9


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--src", str(root / "src"),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    context = next(
        (json.loads(line[len("# context "):]) for line in lines if line.startswith("# context ")), None
    )
    return {"context": context, "result": json.loads(lines[-1])}


def collect(args) -> int:
    spec = json.loads(SPEC.read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    args.out.mkdir(parents=True, exist_ok=True)
    for k in range(args.pairs):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                record = run_once(sides[side], workload, args.seed + k, spec["run_seconds"])
                record.update(pair=k, first=order[0], workload=workload, seed=args.seed + k,
                              root=str(sides[side]))
                with open(args.out / f"{side}.jsonl", "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                value = record["result"]["metrics"]
                print(f"pair {k} {workload} {side}: "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in value.items()), flush=True)
    return 0


def load(path: Path) -> dict[str, dict[int, dict]]:
    by_workload: dict[str, dict[int, dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            by_workload.setdefault(record["workload"], {})[record["pair"]] = record
    return by_workload


def relative_spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else float("inf")


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool) -> tuple[str, float, int]:
    """Judge one metric on paired runs; return (verdict, relative change, pairs won)."""
    sign = 1.0 if better == "higher" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    improvement = sign * (c_med - p_med)
    relative = (c_med - p_med) / abs(p_med) if p_med else 0.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_iqr = relative_spread(parent) * abs(p_med)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (len(parent) >= MIN_PAIRS_FOR_GAIN and wins >= WIN_SHARE * len(parent)
            and improvement > p_iqr and not more_failures):
        return "gain", relative, wins
    if p_med and -improvement / abs(p_med) > bound:
        return "REGRESSION", relative, wins
    if max(relative_spread(parent), relative_spread(change)) > bound and not all_better:
        return "unresolved", relative, wins
    return "ok", relative, wins


def judge(args) -> int:
    spec = json.loads(SPEC.read_text())
    parent, change = load(args.parent), load(args.change)
    regressions = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        pairs = sorted(set(parent.get(workload, {})) & set(change.get(workload, {})))
        if not pairs:
            continue
        p_runs = [parent[workload][k]["result"] for k in pairs]
        c_runs = [change[workload][k]["result"] for k in pairs]
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_values = [r["metrics"][name]["value"] for r in p_runs]
            c_values = [r["metrics"][name]["value"] for r in c_runs]
            result, relative, wins = verdict(
                p_values, c_values, metric["better"], metric["bound"], c_failed > p_failed
            )
            regressions += result == "REGRESSION"
            cells.append(
                f"{name}={result}({relative:+.1%},{wins}/{len(pairs)},"
                f"spread {relative_spread(p_values):.1%}/{relative_spread(c_values):.1%}"
                f"<={metric['bound']:.0%})"
            )
        print(f"{workload:<14} pairs={len(pairs)} failed={p_failed}/{c_failed} " + " ".join(cells))
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run alternating parent/change pairs")
    p.add_argument("parent", type=Path, help="repository root of the parent")
    p.add_argument("change", type=Path, help="repository root of the change")
    p.add_argument("--out", type=Path, required=True, help="directory for the two .jsonl files")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1000, help="seed of pair 0")
    p.add_argument("--workload", action="append", help="repeatable; default: every workload")
    p.set_defaults(func=collect)
    p = sub.add_parser("judge", help="apply the comparison rule, one row per workload")
    p.add_argument("parent", type=Path, help="parent.jsonl")
    p.add_argument("change", type=Path, help="change.jsonl")
    p.set_defaults(func=judge)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
