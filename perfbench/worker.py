"""One workload in one fresh process; prints its measurements as one JSON line.

Started by ``run.py`` with BLAS pinned to one thread.  The process is a
closed loop of one caller: each job starts when the previous one has
returned.

Timed mode (``--trace 0``): a warm-up pass, then timed passes over the job
list until the next pass would overrun ``--seconds`` (at least one).  Each
job's latency is its fastest pass: the shared host slows every process by
up to 1.7x for seconds at a time, and the best of several passes spaced
seconds apart is what repeats from run to run.  Each pass moves every job
to another CPU (see ``CPUS``), and job lists are kept short enough for
several passes per run.  ``wall_s`` is the sum of those latencies, i.e. one
pass of the job list at each job's best.  Every pass must reproduce the
first pass's reports byte for byte.

Traced mode (``--trace 1``): a warm-up pass, one untraced pass, then two
traced passes.  Per-layer metrics come from the first traced pass.  Both
traced passes must reproduce the untraced reports byte for byte, and the
second must reproduce the first's exact counts.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qcond  # noqa: E402
import qcond.cli  # noqa: E402,F401  (builds the scene op registry, as users do)

import tracing  # noqa: E402
import workloads  # noqa: E402


class Pass:
    """Outcome of running the job list once."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.latencies_s: list[float] = []
        self.texts: dict[str, str] = {}
        self.failed: list[str] = []
        self.witnesses = 0
        self.search_trials = 0


#: CPUs this process may run on.  Timed passes move each job to another of
#: them from pass to pass: on a shared host one CPU can run slow for seconds
#: while another does not, and a job's fastest pass should not depend on
#: which CPU it happened to stay on.
CPUS = sorted(os.sched_getaffinity(0))


def run_pass(jobs, reference: Pass | None = None, tracer=None, rotate: int | None = None) -> Pass:
    """Run every job once.  A job fails if it raises, does not pass, or its
    report text differs byte for byte from the reference pass's; only a
    pass without a reference keeps its texts.  With ``rotate``, job i runs
    pinned to CPU ``(i + rotate) mod len(CPUS)``."""
    out = Pass()
    clock = time.perf_counter
    start = clock()
    for index, job in enumerate(jobs):
        if rotate is not None:
            os.sched_setaffinity(0, {CPUS[(index + rotate) % len(CPUS)]})
        t0 = clock()
        try:
            if tracer is None:
                ok, text, payload = job.run()
            else:
                with tracer.job(index):
                    ok, text, payload = job.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, text, payload = False, None, {}
        out.latencies_s.append(clock() - t0)
        if reference is None:
            out.texts[job.key] = text
        elif text != reference.texts[job.key]:
            ok = False
        if not ok:
            out.failed.append(job.key)
        if payload.get("suite") in workloads.SEARCH_SUITES:
            out.witnesses += len(payload.get("witnesses", []))
            out.search_trials += payload["trials"]
    out.wall_s = clock() - start
    return out


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail_percentile(jobs_per_pass: int) -> int:
    """Highest whole percentile with at least ten of one pass's jobs beyond it."""
    return int(100 * (1 - 10 / jobs_per_pass)) if jobs_per_pass > 10 else 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: tracing.Tracer, traced: Pass, untraced: Pass) -> dict[str, float]:
    self_s, calls = tracer.summary()
    out: dict[str, float] = {}
    module_self = 0.0
    for layer in tracing.LAYERS:
        names = [n for n in self_s if n.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(self_s[n] for n in names)
        out[f"{layer}.calls"] = sum(calls[n] for n in names)
        module_self += out[f"{layer}.self_s"]
    for name in tracing.FUNCTION_SELF:
        out[f"{name}.self_s"] = self_s[name]
    for name in tracing.FUNCTION_CALLS:
        out[f"{name}.calls"] = calls[name]
    out.update(tracer.exact_counts())
    out["suites.witness_ratio"] = (
        traced.witnesses / traced.search_trials if traced.search_trials else 0.0
    )
    out["trace.wall_s"] = traced.wall_s
    out["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    # Everything inside the traced pass that no qcond span covers: job
    # set-up, report serialization and the loop itself.
    out["bench.self_s"] = traced.wall_s - module_self
    return out


#: Per-layer metrics that count rather than time; two traced passes over the
#: same inputs must agree on them exactly.
EXACT = (
    [f"{layer}.calls" for layer in tracing.LAYERS]
    + [f"{name}.calls" for name in tracing.FUNCTION_CALLS]
    + list(tracing.EXACT_COUNTS)
    + ["suites.witness_ratio"]
)


def blas_threads() -> str:
    """Threads the OpenBLAS bundled with numpy reports, else the pinned setting."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        try:
            get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        return str(get())
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}"


def environment() -> dict:
    """Versions, BLAS, CPU and commit of the measuring process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "qcond": qcond.__version__,
    }


def traced_pass(jobs, reference: Pass) -> tuple[Pass, tracing.Tracer]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return run_pass(jobs, reference, tracer), tracer
    finally:
        tracer.uninstall()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(qcond.__file__).resolve().parents:
        print(f"qcond imported from {qcond.__file__}, not from {src}", file=sys.stderr)
        return 2

    jobs, warmup = workloads.build(args.workload, args.seed, ROOT / "docs" / "scenes", args.tiny)
    passes = [run_pass(warmup)]
    result: dict = {"jobs_per_pass": len(jobs), "environment": environment()}

    if args.trace == 0:
        timed = [run_pass(jobs, rotate=0)]
        elapsed = timed[0].wall_s
        while elapsed + timed[-1].wall_s <= args.seconds:
            timed.append(run_pass(jobs, timed[0], rotate=len(timed)))
            elapsed += timed[-1].wall_s
        passes += timed
        best = [min(lat) for lat in zip(*(p.latencies_s for p in timed))]
        tail_p = tail_percentile(len(jobs))
        result["timed"] = {
            "pass_wall_s": [p.wall_s for p in timed],
            "wall_s": sum(best),
            "job_ms_p50": 1e3 * float(np.median(best)),
            "job_ms_tail": 1e3 * percentile(best, tail_p),
            "tail_percentile": tail_p,
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        untraced = run_pass(jobs)
        first, tracer = traced_pass(jobs, untraced)
        second, tracer2 = traced_pass(jobs, untraced)
        passes += [untraced, first, second]
        metrics = layer_metrics(tracer, first, untraced)
        repeat = layer_metrics(tracer2, second, untraced)
        result["traced"] = {
            "metrics": metrics,
            "exact": EXACT,
            "exact_unstable": [n for n in EXACT if metrics[n] != repeat[n]],
            "spans": len(tracer.span_name),
        }

    failed = [f"pass {n}: {key}" for n, p in enumerate(passes) for key in p.failed]
    result["attempted"] = sum(len(p.latencies_s) for p in passes)
    result["failed"] = len(failed)
    result["failed_jobs"] = failed[:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
