"""Print the per-layer cost of the stack a solve goes through, in median
microseconds per call.

    python tools/layers.py

Each figure is the median, over its calls, of the best of a few timed
repeats of the call.  The layers are:

* ``FamilySpec.eval_grid`` on the power family (0, .5, 1.5, 2.5, 4, 5, 6.5)
  on [0.1, 1.2]: one point; a 15-row block of mixed derivative orders, laid
  out as a Karlin system lays out its block (three double nodes, their
  second-derivative rows, and orders 0-2 at two touch points); 5,000 points;
* ``colloc.null_vector`` on 4 x 5 and 6 x 7 node matrices of that family's
  first 5 and 7 members;
* the Karlin tangency system, ``_TangencySolver.system`` and the Jacobian it
  returns, over the calls one pass of the ``karlin`` corpus makes (the
  Jacobian over the calls whose Jacobian Newton asked for);
* ``moments._grid_fit``, per fit, over the fits one pass of each of the
  ``moment_dual`` and ``moment_primal`` corpora makes;
* ``moments._certificate_is_sound``, per check, over the checks one pass of
  the ``moment_dual`` corpus makes;
* its 40-digit decimal re-check ``moments._mp_value``, per evaluation, over
  the evaluations of that pass;
* ``best_approx`` and ``snake``, per call, over the calls one pass of the
  ``desk`` corpus makes (its README commands call them through the CLI and
  are not counted), and the Remez extremum search ``snake._alternant``, per
  call, over every call of that pass.

The corpora are those of ``perfbench/workloads.py``, which this tool only
reads.  It takes no options.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tsystems as ts  # noqa: E402
from tsystems import karlin, moments  # noqa: E402
from tsystems.colloc import node_rows, null_vector  # noqa: E402
from tsystems.errors import TSystemError  # noqa: E402

import workloads  # noqa: E402

REPEATS = 5


def best_us(call, repeats=REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def median_us(calls, repeats=REPEATS) -> float:
    return float(np.median([best_us(c, repeats) for c in calls]))


def one_pass(owner, name, spy, workload_names):
    """One pass over each named corpus with owner.name replaced by spy."""
    original = getattr(owner, name)
    setattr(owner, name, spy)
    try:
        for wname in workload_names:
            wl = workloads.WORKLOADS[wname]
            for inst in wl.corpus():
                try:
                    wl.call(inst)
                except TSystemError:
                    pass
    finally:
        setattr(owner, name, original)


def main() -> int:
    fam = ts.power_family([0, 0.5, 1.5, 2.5, 4, 5, 6.5], ts.interval(0.1, 1.2))
    xs, ys = [0.3, 0.6, 0.9], [0.45, 0.75]
    pts = np.array([x for x in xs for _ in (0, 1)] + xs + ys * 3)
    orders = np.array([0, 1] * 3 + [2] * 3 + [0] * 2 + [1] * 2 + [2] * 2)
    wide = np.linspace(0.1, 1.2, 5000)
    rows = [
        ("eval_grid, 1 point", median_us([lambda: fam.eval_grid([0.7])] * 200)),
        ("eval_grid, 15-row mixed block", median_us([lambda: fam.eval_grid(pts, orders)] * 200)),
        ("eval_grid, 5,000 points", median_us([lambda: fam.eval_grid(wide)] * 20)),
    ]
    for n in (4, 6):
        sub = ts.power_family(fam.params[: n + 1], fam.domain)
        B = node_rows(sub, [(x, 1) for x in np.linspace(0.2, 1.1, n)])
        rows.append((f"null_vector, {n}x{n + 1}", median_us([lambda B=B: null_vector(B)] * 200)))

    system = karlin._TangencySolver.system
    calls, jac_calls = [], []

    def spy(self, z, fc):
        R, jac = system(self, z, fc)
        call = (self, np.array(z), fc)
        calls.append(call)

        def counted():
            jac_calls.append(call)
            return jac()

        return R, counted

    one_pass(karlin._TangencySolver, "system", spy, ["karlin"])
    rows.append((f"karlin system, {len(calls)} calls",
                 median_us([lambda c=c: system(*c) for c in calls])))
    rows.append((f"karlin jac, {len(jac_calls)} calls",
                 median_us([lambda j=system(*c)[1]: j() for c in jac_calls])))

    grid_fit, fits = moments._grid_fit, []
    one_pass(moments, "_grid_fit", lambda *args: fits.append(args) or grid_fit(*args),
             ["moment_dual", "moment_primal"])
    rows.append((f"_grid_fit, {len(fits)} fits", median_us([lambda a=a: grid_fit(*a) for a in fits], 3)))

    for name, what in (("_certificate_is_sound", "checks"), ("_mp_value", "evaluations")):
        layer, args = getattr(moments, name), []
        one_pass(moments, name, lambda *a, layer=layer, args=args: args.append(a) or layer(*a),
                 ["moment_dual"])
        rows.append((f"{name}, {len(args)} {what}", median_us([lambda a=a: layer(*a) for a in args])))

    for owner, name in ((ts, "best_approx"), (ts, "snake"), (sys.modules["tsystems.snake"], "_alternant")):
        layer, calls = getattr(owner, name), []
        one_pass(owner, name, lambda *a, layer=layer, calls=calls, **k: calls.append((a, k)) or layer(*a, **k),
                 ["desk"])
        rows.append((f"{name}, {len(calls)} calls", median_us([lambda c=c: layer(*c[0], **c[1]) for c in calls])))

    for label, us in rows:
        print(f"{label:<36} {us:9.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
