"""Run the benchmark alternately in two checkouts and judge every end-to-end metric.

Usage::

    python tools/bench_pairs.py A B --workload W --pairs N --seconds S --seed K

A is the parent checkout and B the change.  Each pair runs
``perfbench/run.py --workload W --seed K --seconds S --trace 0`` once in
each checkout, A first in the first pair, B first in the second, and so on.
Every run's metrics are printed as it ends.  Then, for each end-to-end metric
that A's ``BENCHMARK.json`` lists, one row gives each side's median and
quartiles, the pairs B won (ties count for neither side) and a verdict:

- ``gain``: B won at least 9 in 10 of the pairs, and its median beats A's
  by more than A's interquartile range;
- ``worse``: B's median is worse than A's by more than the metric's bound,
  a fraction of A's median;
- ``unresolved``: neither, and one side's interquartile range is wider than
  the bound (as a fraction of its median), unless every run of B beats
  every run of A;
- ``within bound``: otherwise.

The failed and attempted job counts of each side follow.  The tool only
invokes the benchmark; it changes nothing in either checkout.

Exit status: 0 when every run printed a correct result, 1 when a run failed
or reported failed jobs, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

GAIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Verdict on one metric from the paired runs a[i], b[i] (A is the parent)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (x - y) > 0: y beats x
    qa, qb = quartiles(a), quartiles(b)
    iqr_a, iqr_b = qa[2] - qa[0], qb[2] - qb[0]
    wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
    gap = sign * (qa[1] - qb[1])  # > 0 when B's median is better
    spread = max(iqr_a / abs(qa[1]) if qa[1] else 0.0, iqr_b / abs(qb[1]) if qb[1] else 0.0)
    b_beats_all = all(sign * (x - y) > 0 for x in a for y in b)
    if wins >= GAIN_SHARE * len(a) and gap > iqr_a:
        verdict = "gain"
    elif -gap > bound * abs(qa[1]):
        verdict = "worse"
    elif spread > bound and not b_beats_all:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"a": qa, "b": qb, "wins": wins, "pairs": len(a), "gap": gap, "iqr_a": iqr_a,
            "verdict": verdict}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one timed benchmark run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="parent checkout")
    parser.add_argument("b", type=Path, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        spec = json.loads((args.a / "BENCHMARK.json").read_text())["end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read {args.a / 'BENCHMARK.json'}: {exc}", file=sys.stderr)
        return 2

    runs: dict[str, list[dict]] = {"A": [], "B": []}
    try:
        for i in range(args.pairs):
            for side in ("AB" if i % 2 == 0 else "BA"):
                result = run_once(args.a if side == "A" else args.b, args.workload, args.seed, args.seconds)
                runs[side].append(result)
                values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in spec)
                print(f"pair {i + 1} {side}: {values} failed={result['failed']}/{result['attempted']}",
                      flush=True)
    except (OSError, ValueError, IndexError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs at --seconds {args.seconds:g}")
    print(f"{'metric':<14} {'A median [q1, q3]':<30} {'B median [q1, q3]':<30} {'B won':<8} verdict")
    for m in spec:
        a = [r["metrics"][m["name"]]["value"] for r in runs["A"]]
        b = [r["metrics"][m["name"]]["value"] for r in runs["B"]]
        v = judge(a, b, m["better"], m["bound"])
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {m['unit']}" for q in (v["a"], v["b"])]
        print(f"{m['name']:<14} {cells[0]:<30} {cells[1]:<30} {v['wins']}/{v['pairs']:<6} {v['verdict']}")
    ok = True
    for side in ("A", "B"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        ok = ok and failed == 0 and all(r["correct"] for r in runs[side])
        print(f"{side}: {failed} of {attempted} jobs failed")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
