"""One benchmark process: set up, warm up, run the timed closed loop, check.

Run by ``run.py``; prints one JSON line with the raw measurements.

    python3 perfbench/worker.py --workload karlin --seed 1 --seconds 10 [--trace] [--setup-only]

The timed loop issues one public call at a time (closed loop, one client),
``Workload.calls(--seconds)`` calls in all: whole passes over the workload's
corpus.  Between calls it times the reference kernel of ``refcore.py``; each
call is recorded with its wall time and the kernel's time around it.
Instance generation and output checks run outside the timed region.  With
``--trace`` the first half of the calls runs untraced, then the same instances
are replayed with the span wrappers installed; the traced replay gives the
per-layer numbers and the overhead of tracing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import itertools  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tsystems  # noqa: E402
from tsystems import colloc  # noqa: E402

import refcore  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Instance  # noqa: E402


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tsystems": tsystems.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class CallLimit(BaseException):
    """Raised into a call that outlives the workload's per-call limit.

    A BaseException, so the library's ``except Exception`` blocks (the dual
    search guards its objective with one) cannot swallow it."""


def _expire(signum, frame):
    raise CallLimit()


def timed_call(workload, inst: Instance) -> float:
    previous = signal.signal(signal.SIGALRM, _expire)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, workload.call_limit_s)
        inst.output = workload.call(inst)
    except CallLimit:
        inst.error = f"still running after the {workload.call_limit_s:g} s call limit"
    except Exception as exc:  # a raising call is a failed call, not a crash
        inst.error = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - t0


def run_loop(workload, instances, calls: int, tracer=None) -> list:
    """Call the first ``calls`` instances (an iterator); returns
    (instance, wall seconds, reference kernel seconds) per call, the kernel's
    time being the mean of its timings right before and right after the call."""
    done = []
    ref = refcore.measure()
    for inst in itertools.islice(instances, calls):
        if tracer is not None:
            tracer.current_solve = len(done)
        dt = timed_call(workload, inst)
        ref_after = refcore.measure()
        done.append((inst, dt, 0.5 * (ref + ref_after)))
        ref = ref_after
        if tracer is not None and isinstance(inst.output, tsystems.KarlinDecomposition):
            tracer.record_decomposition(inst.output)
    return done


def check_all(workload, done) -> tuple:
    """Failure reasons (None for a correct call), one per timed call, and
    the number of checks that could not be completed."""
    reasons, errors = [], 0
    for inst, _, _ in done:
        if inst.error is not None:
            reasons.append(inst.error)
            continue
        try:
            reasons.append(workload.check(inst))
        except Exception as exc:  # report, keep checking the other calls
            errors += 1
            reasons.append(f"check raised {type(exc).__name__}: {exc}")
    return reasons, errors


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.  VmHWM starts afresh at
    exec; ru_maxrss also holds the parent's size at fork."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None, help="write the traced spans here (.npz)")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    stream = workload.stream(args.seed)
    first = next(stream)
    warm = workload.warmup_instance(args.seed)
    timed_call(workload, warm)
    ready = time.monotonic()
    ref_ready = refcore.measure()
    if args.setup_only:
        print(json.dumps({"ready": ready, "ref_ready": ref_ready}))
        return 0

    def instances():
        yield first
        yield from stream

    calls = workload.calls(args.seconds)
    result = {"ready": ready, "ref_ready": ref_ready, "env": environment(),
              "warmup_error": warm.error}
    if not args.trace:
        done = run_loop(workload, instances(), calls)
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        plain = run_loop(workload, instances(), max(1, calls // 2))
        replay = (Instance(inst.stratum, inst.args) for inst, _, _ in plain)
        colloc._CERT_CACHE.clear()  # the replay must not find the first pass's certificates
        tracer = spans.Tracer()
        tracer.install()
        try:
            done = run_loop(workload, replay, len(plain), tracer)
        finally:
            tracer.uninstall()
        t_plain = sum(refcore.rescale(dt, ref) for _, dt, ref in plain)
        t_traced = sum(refcore.rescale(dt, ref) for _, dt, ref in done)
        metrics = spans.layer_metrics(tracer.summary(), tracer.counters, len(done))
        metrics["trace.overhead_frac"] = t_traced / t_plain - 1.0
        result["layers"] = metrics
        result["spans"] = len(tracer.start)
        if args.spans_out:
            np.savez_compressed(args.spans_out, **tracer.arrays())
    result["durations"] = [dt for _, dt, _ in done]
    result["ref_s"] = [ref for _, _, ref in done]
    result["strata"] = [inst.stratum for inst, _, _ in done]
    result["failures"], result["check_errors"] = check_all(workload, done)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
