"""tsystems benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload karlin --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (it imports ``src/tsystems``).  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Times are
wall times rescaled to the reference core of ``refcore.py``.  The full
record of the run (environment, seed, every metric, each failure reason) is
written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# one BLAS thread, here (for the reference kernel) and in the workers: the
# closed loop has one client and the matrices are small
BLAS_THREADS = {key: "1" for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402
from scipy.stats import beta  # noqa: E402

import refcore  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOADS = ("karlin", "moment_dual", "moment_primal", "desk")
SETUP_PROBES = 2  # extra fresh processes that stop at the first timed call
TAIL_BEYOND = 10  # the tail percentile keeps at least this many calls beyond it
DEADLINE_S = 170.0

UNITS = {"setup_s": "s", "solve_p50_ms": "ms", "solve_tail_ms": "ms", "solves_per_s": "1/s",
         "ok_frac": "frac", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/solve"
    if name.endswith("_frac") or name == "trace.overhead_frac":
        return "frac"
    if name in ("moments.pfz_per_call", "karlin.newton_iters", "snake.remez_iters"):
        return "1/call"
    return "1/solve"


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, extra: list, timeout: float) -> tuple:
    """Start a fresh worker; returns (its JSON result, setup seconds, setup
    seconds on the reference core).  The kernel is timed here right before the
    start and in the worker right after its set-up."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    ref = refcore.measure()
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = result["ready"] - t0
    return result, setup, refcore.rescale(setup, 0.5 * (ref + result["ref_ready"]))


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.  It reads
    the calls around the quantile's rank, not only the one at it, so one
    noisy call moves it less than it moves the order statistic."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = beta.cdf(np.arange(n + 1) / n, (n + 1) * p, (n + 1) * (1.0 - p))
    return float(np.dot(np.diff(edges), x))


def latency_metrics(durations: list) -> tuple:
    """(p50 ms, tail ms, tail percentile): the tail is the highest percentile
    with at least TAIL_BEYOND calls beyond it (the maximum if there are fewer)."""
    ms = [1000.0 * d for d in durations]
    n = len(ms)
    k = max(n - 1 - TAIL_BEYOND, 0) if n > TAIL_BEYOND else n - 1
    p = (k + 1) / n
    return hd_quantile(ms, 0.5), hd_quantile(ms, p) if p < 1.0 else max(ms), 100.0 * p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tsystems benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tsystems" / "__init__.py").is_file():
        print(f"error: no tsystems sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups, setups_wall = [], []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                _, wall, setup = run_worker(args, ["--setup-only"], deadline - time.monotonic())
                setups_wall.append(wall)
                setups.append(setup)
        extra = ["--trace", "--spans-out", str(OUT / f"spans-{tag}.npz")] if args.trace else []
        result, wall, setup = run_worker(args, extra, deadline - time.monotonic())
        setups_wall.append(wall)
        setups.append(setup)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    walls = result["durations"]
    durations = [refcore.rescale(d, ref) for d, ref in zip(walls, result["ref_s"])]
    failures = result["failures"]
    attempted, failed = len(durations), sum(r is not None for r in failures)
    p50, tail, tail_pct = latency_metrics(durations)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "solve_p50_ms": p50,
        "solve_tail_ms": tail,
        "solves_per_s": attempted / sum(durations),
        "ok_frac": (attempted - failed) / attempted,
    }
    wall_p50, wall_tail, _ = latency_metrics(walls)
    wall_metrics = {"setup_s": statistics.median(setups_wall), "solve_p50_ms": wall_p50,
                    "solve_tail_ms": wall_tail, "solves_per_s": attempted / sum(walls)}
    host_speed = refcore.NOMINAL_S / statistics.median(result["ref_s"])
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["layers"].items()}
    else:
        end_to_end["peak_rss_mb"] = result["peak_rss_mb"]
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end.items()}

    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"calls {attempted}, failed {failed}, fail_frac {failed / attempted:.4f}, "
          f"tail = p{tail_pct:.1f} ({TAIL_BEYOND} calls beyond it)")
    print(f"host speed {host_speed:.3f} of the reference core (median over the calls); "
          "unscaled wall times: " + ", ".join(f"{k} {v:.6g}" for k, v in wall_metrics.items()))
    for reason, count in Counter(r for r in failures if r is not None).most_common(5):
        print(f"  failed x{count}: {reason}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted, "tail_percentile": tail_pct,
              "setup_samples_s": setups, "setup_samples_wall_s": setups_wall,
              "end_to_end": end_to_end, "wall": wall_metrics, "host_speed": host_speed,
              "metrics": metrics, "strata": result["strata"], "durations_s": durations,
              "wall_durations_s": walls, "ref_s": result["ref_s"], "failures": failures,
              "check_errors": result["check_errors"], "warmup_error": result["warmup_error"]}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": result["check_errors"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
