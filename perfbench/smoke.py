"""Smoke run of the benchmark at tiny sizes; finishes in well under a minute.

    python3 perfbench/smoke.py

Runs every workload once timed and once traced with ``--tiny``, and checks
that each run exits 0, ends with a correct result object, and prints
exactly the metrics BENCHMARK.json names for its mode, with their units.
Exits 1 on the first problem.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(f"FAIL {where}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"] or units != expected[trace]:
                print(f"FAIL {where}: {json.dumps(result)[:2000]}")
                return 1
            print(f"ok   {where}: {result['attempted']} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
