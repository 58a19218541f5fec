"""Print every output that a claim of byte-identical results rests on, one
text line per output, in a fixed order.

    python tools/dump_outputs.py > outputs.txt

Run it on two trees and compare the files with ``cmp``.  The lines are, in
order:

* the 262 calls of the four benchmark corpora (``perfbench/workloads.py``,
  which this tool only reads): 56 ``karlin``, 24 ``moment_dual``,
  56 ``moment_primal`` and 126 ``desk``, each corpus in its own order;
* the 252 fresh Karlin draws of
  ``tests/test_karlin.py::test_fresh_high_degree_karlin_draws_pass_the_benchmark_check``
  (rng seeds 5 and 11), a ``NoConvergence`` with its diagnostics;
* the 120 near-boundary census verdicts of ``tests/test_moments.py::_census``;
* the 50 instances of acceptance criterion 10: the verdict and recovered
  measure of the functional, then the verdict of the perturbed one;
* acceptance criterion 12: the ET certificate of the smoothed family and
  the Gaussian's order-3 ``kernel_tp_check``, which is also
  ``tests/test_smooth.py::test_gaussian_stp3``'s;
* the other exhaustive ``kernel_tp_check`` calls of ``tests/test_smooth.py``:
  the power kernel, the rank-one kernel and the Gaussian's ETP of order 2;
* three sampled ``kernel_tp_check`` calls: the Gaussian's ETP order 3 on
  30 x 30 points and its order 4 on 60 x 60 points, budget 2,000 each, and
  (x - y)^2 of order 2 on 30 x 30 points, budget 500;
* ``best_approx`` beyond the ``desk`` corpus: the 60 seeded draws of
  acceptance criterion 8 (``default_rng(seed)``, seeds 0-59, n from
  ``integers(1, 5)``, a random member of degree n + 2 from monomials 0..n on
  [-1, 1]); |x - 0.3| from monomials 0..n on [-1, 1], n = 1..6; the Remez
  sweep's 50 noisy tables, draws k = 2, 6, ..., 198 (``default_rng(1000 + k)``,
  n from ``integers(1, 7)``, sin 5x plus 0.1 standard normal noise at 50
  points of [-1, 1]), among them draws 22, 122 and 158, which stall; and
  log x from the powers (0, .5, 1.5, 2.5, 3, 3.5) on [0.1, 1.2] (sweep draw
  181);
* ``snake`` on bands that are not Chebyshev's, both touch patterns each:
  a member of degree 5 +- 0.2 over monomials 0..3 on [-1, 1] (``SparsePoly``
  bounds), and log x -+ (0.02 + 0.01 x) over the powers (0, .5, 1.5, 2.5) on
  [0.1, 1.2], once as plain callables (slopes by differences) and once with
  exact slopes;
* the status, route and gap of ``sparse_feasibility`` on the exponential
  half-line draws of ``tests/test_moments.py``: recipe D
  (``default_rng(7)``, rates linspace(-1, 0, n + 1), n = 4 and 6, 30 draws
  each, atoms in [0.2, 8]) and recipe G (``default_rng(8)``, rates
  linspace(0, 1, n + 1), n = 2 and 4, 20 draws each, atoms in [0.2, 5]);
* ``count_zeros`` beyond the ``desk`` corpus: the 12 round trips of
  ``tests/test_zeros.py::test_round_trip_random_node_sets`` and the 40
  random vectors of ``test_zero_count_bound_random_vectors`` (each from
  ``default_rng(20240808)``), the five simple zeros of a quintic,
  (x - 0.3)^2 (x - 0.7)^2 on monomials 0..4 over [0, 1], and three double
  zeros, one 1.83e-8 inside the window's end;
* 40 T refutations of {1, x, x^3} on [-a, b] (``default_rng(42)``, a and b
  in [0.3, 1.0] rounded to 4 digits, as the ``desk`` corpus draws them),
  each certificate with its counterexample.

A result is written by its ``to_json`` (or ``to_dict``); a smoothed family,
whose evaluators are closures, by its values and first derivatives at fixed
points.  An error is written as its type and message.  The tool takes no
options.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tsystems as ts  # noqa: E402
from tsystems.errors import NoConvergence, TSystemError  # noqa: E402
from tsystems.moments import MomentFunctional  # noqa: E402

import workloads  # noqa: E402

SMOOTH_POINTS = np.linspace(0.0, 1.0, 11)


def encode(out) -> str:
    if isinstance(out, tuple):
        return "[" + ", ".join(encode(o) for o in out) + "]"
    if isinstance(out, ts.FamilySpec) and out.variant == "custom":
        vals = [out.eval_grid(SMOOTH_POINTS, k).tolist() for k in (0, 1)]
        return json.dumps({"size": out.size, "values": vals})
    if hasattr(out, "to_json"):
        return out.to_json()
    if hasattr(out, "to_dict"):
        return json.dumps(out.to_dict(), sort_keys=True)
    return json.dumps(out)


def outcome(call, *args) -> str:
    try:
        return encode(call(*args))
    except NoConvergence as e:
        return json.dumps({"error": "NoConvergence", "message": str(e),
                           "diagnostics": repr(e.diagnostics)})
    except (TSystemError, ValueError) as e:
        return json.dumps({"error": type(e).__name__, "message": str(e)})


def corpus_lines():
    for name, wl in workloads.WORKLOADS.items():
        for i, inst in enumerate(wl.corpus()):
            yield f"{name} {i} {inst.stratum} {outcome(wl.call, inst)}"


def fresh_karlin_lines():
    strata = workloads.KARLIN_STRATA + ["ab:5", "ab:6", "ab:7", "halfline:4", "halfline:5", "c6:7", "c6:8"]
    for seed in (5, 11):
        rng = np.random.default_rng(seed)
        draws = [workloads.karlin_make(rng, s) for _ in range(6) for s in strata]
        for i, inst in enumerate(draws):
            yield f"fresh_karlin {seed}:{i} {inst.stratum} {outcome(workloads.karlin_call, inst)}"


def census():
    """tests/test_moments.py::_census: 120 draws from default_rng(7)."""
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(2, 7))
        fam = ts.monomial_family(list(range(n + 1)), ts.interval(0.0, 1.0))
        k = int(rng.integers(1, n // 2 + 2))
        atoms = list(zip(np.sort(rng.uniform(0, 1, k)), rng.uniform(0.2, 1, k)))
        d = rng.normal(size=n + 1)
        s = MomentFunctional.from_measure(fam, atoms).s
        s = s + 10 ** rng.uniform(-8, -5) * float(np.max(np.abs(s))) * d / np.max(np.abs(d))
        yield MomentFunctional(tuple(s), fam)


def criterion_10(tol=1e-8):
    """tests/test_acceptance.py::test_criterion_10_moment_round_trip's 50
    instances: (functional, perturbed functional)."""
    rng = np.random.default_rng(73)
    done = 0
    while done < 50:
        n = int(rng.integers(2, 7))
        extra = np.sort(rng.choice(np.arange(1, 3 * n + 1), size=n, replace=False) * 0.5)
        on_halfline = done % 2 == 1
        fam = ts.power_family([0.0] + list(extra), ts.halfline(0.0) if on_halfline else ts.interval(0.1, 1.2))
        lo, hi = (0.08, 2.5) if on_halfline else (0.12, 1.18)
        k = int(rng.integers(1, min(4, n // 2) + 1))
        pos = np.sort(rng.uniform(lo, hi, k))
        if len(pos) > 1 and np.min(np.diff(pos)) < 0.08:
            continue
        wts = rng.uniform(0.2, 1.0, k)
        L = MomentFunctional.from_measure(fam, list(zip(pos, wts)))
        pad = n - 2 * k
        nodes = [(float(x), 2) for x in pos]
        fill = []
        while 2 * len(fill) < pad - (pad % 2):
            cand = float(rng.uniform(lo, hi))
            if all(abs(cand - q) > 0.07 for q, _ in nodes + fill):
                fill.append((cand, 2))
        nodes += fill
        if pad % 2 == 1:
            nodes.append((0.0 if on_halfline else 0.1, 1))
        try:
            p_hat = ts.poly_from_zeros(fam, ts.NodeSet.of(*nodes), check_certificate=False)
        except Exception:  # the criterion's own rejection rule
            continue
        if abs(p_hat.a[0]) < 0.3:
            continue
        s = np.array(L.s)
        s[0] -= 10 * float(np.max(np.abs(L.s))) * tol * math.copysign(1.0, p_hat.a[0])
        yield L, MomentFunctional(tuple(s), fam)
        done += 1


def moment_lines():
    for i, L in enumerate(census()):
        yield f"census {i} - {outcome(ts.sparse_feasibility, L)}"
    for i, (L, pert) in enumerate(criterion_10()):
        both = outcome(lambda: (ts.sparse_feasibility(L), ts.recover_atoms(L)))
        yield f"criterion_10 {i} - {both} {outcome(ts.sparse_feasibility, pert)}"


def smoothing_lines():
    fam = ts.monomial_family([0, 1, 3], ts.interval(0, 1))
    sm = ts.gaussian_smooth(fam, ts.KernelSpec("gaussian", 0.05))
    yield f"criterion_12 certify {outcome(ts.certify, sm, 'ET', 61, 2000, 0, (0.1, 0.9))}"
    gauss = ts.KernelSpec("gaussian", 1.0)
    calls = [
        ("criterion_12", gauss, np.linspace(-1, 1, 6), np.linspace(-0.5, 1.5, 6), 3, False, 100_000),
        ("power", lambda x, y: y**x, np.linspace(0, 2, 5), np.linspace(0.2, 1.0, 5), 2, False, 100_000),
        ("rank_one", lambda x, y: 1.0, np.linspace(0, 1, 4), np.linspace(0, 1, 4), 2, False, 100_000),
        ("etp2", gauss, np.linspace(-1, 1, 5), np.linspace(-1, 1, 5), 2, True, 100_000),
        ("etp3_sampled", gauss, np.linspace(-1, 1, 30), np.linspace(-1, 1, 30), 3, True, 2000),
        ("stp4_sampled", gauss, np.linspace(-1, 1, 60), np.linspace(-1, 1, 60), 4, False, 2000),
        ("dsq_sampled", lambda x, y: (x - y) ** 2, np.linspace(0, 1, 30), np.linspace(0, 1, 30), 2, False, 500),
    ]
    for name, kernel, xg, yg, k, extended, budget in calls:
        yield f"kernel_tp {name} {outcome(ts.kernel_tp_check, kernel, xg, yg, k, extended, budget)}"


def remez_lines():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        ext = ts.monomial_family(list(range(n + 3)), ts.interval(-1, 1))
        target = ts.SparsePoly(tuple(rng.standard_normal(n + 3)), ext)
        fam = ts.monomial_family(list(range(n + 1)), ts.interval(-1, 1))
        yield f"remez criterion_8 {seed} {outcome(ts.best_approx, fam, target)}"
    for n in range(1, 7):
        fam = ts.monomial_family(list(range(n + 1)), ts.interval(-1, 1))
        yield f"remez kink {n} {outcome(ts.best_approx, fam, lambda x: np.abs(np.asarray(x) - 0.3))}"
    for k in range(2, 200, 4):
        rng = np.random.default_rng(1000 + k)
        n = int(rng.integers(1, 7))
        tx = np.linspace(-1, 1, 50)
        table = (tx, np.sin(5 * tx) + 0.1 * rng.standard_normal(50))
        fam = ts.monomial_family(list(range(n + 1)), ts.interval(-1, 1))
        yield f"remez table {k} {outcome(ts.best_approx, fam, table)}"
    fam = ts.power_family([0, 0.5, 1.5, 2.5, 3, 3.5], ts.interval(0.1, 1.2))
    yield f"remez log 181 {outcome(ts.best_approx, fam, lambda x: np.log(np.asarray(x)))}"


def log_band(x, order, side):
    """log x + side (0.02 + 0.01 x) and its first two derivatives."""
    x = np.asarray(x, dtype=float)
    return [np.log(x) + side * (0.02 + 0.01 * x), 1 / x + side * 0.01, -1 / x**2][order]


def snake_lines():
    ext = ts.monomial_family(list(range(6)), ts.interval(-1, 1))
    c, e0 = np.array([0.3, -0.5, 0.8, 0.2, 0.05, -0.03]), np.eye(6)[0]
    bands = {
        "member": (ts.monomial_family([0, 1, 2, 3], ts.interval(-1, 1)),
                   ts.SparsePoly(tuple(c - 0.2 * e0), ext), ts.SparsePoly(tuple(c + 0.2 * e0), ext)),
        "log": (ts.power_family([0, 0.5, 1.5, 2.5], ts.interval(0.1, 1.2)),
                lambda x: np.log(np.asarray(x)) - 0.02 - 0.01 * np.asarray(x),
                lambda x: np.log(np.asarray(x)) + 0.02 + 0.01 * np.asarray(x)),
        "log_slopes": (ts.power_family([0, 0.5, 1.5, 2.5], ts.interval(0.1, 1.2)),
                       lambda x, order=0: log_band(x, order, -1.0),
                       lambda x, order=0: log_band(x, order, 1.0)),
    }
    for name, (fam, g1, g2) in bands.items():
        for which in ("f_star", "f_upper_star"):
            yield f"snake {name} {which} {outcome(ts.snake, fam, g1, g2, which)}"


def verdict_summary(L) -> dict:
    v = ts.sparse_feasibility(L)
    return {"status": v.status, "route": v.route, "gap": v.gap}


def exponential_halfline_lines():
    """tests/test_moments.py::exponential_halfline_draws, recipes D and G."""
    recipes = {"D": (7, (4, 6), lambda n: np.linspace(-1, 0, n + 1), 8, 30),
               "G": (8, (2, 4), lambda n: np.linspace(0, 1, n + 1), 5, 20)}
    for name, (seed, ns, rates, reach, count) in recipes.items():
        rng = np.random.default_rng(seed)
        for n in ns:
            fam = ts.exponential_family(rates(n), ts.halfline(0.0))
            for i in range(count):
                m = int(rng.integers(1, n // 2 + 2))
                pos = rng.uniform(0.2, reach, m)
                wts = rng.uniform(0.2, 1, m)
                s = MomentFunctional.from_measure(fam, list(zip(pos, wts))).s
                d = rng.standard_normal(n + 1)
                s = s - 10 ** rng.uniform(-6, -3) * np.max(np.abs(s)) * d / np.linalg.norm(d)
                L = MomentFunctional(tuple(s), fam)
                yield f"exp_halfline {name} {n}:{i} {outcome(verdict_summary, L)}"


def zeros_lines():
    rng = np.random.default_rng(20240808)  # test_round_trip_random_node_sets
    for i in range(12):
        n = int(rng.integers(2, 8))
        exps = [0] + sorted(rng.choice(np.arange(1, 3 * n), size=n, replace=False).tolist())
        fam = ts.power_family(exps, ts.interval(0.1, 2.0))
        m = n // 2
        pts = np.sort(rng.uniform(0.25, 1.9, m))
        while len(pts) > 1 and np.min(np.diff(pts)) < 0.12:
            pts = np.sort(rng.uniform(0.25, 1.9, m))
        nodes = [(float(t), 2) for t in pts] + ([(0.1, 1)] if n - 2 * m == 1 else [])
        p = ts.poly_from_zeros(fam, ts.NodeSet.of(*nodes), check_certificate=False)
        yield f"zeros round_trip {i} {outcome(ts.count_zeros, p)}"
    rng = np.random.default_rng(20240808)  # test_zero_count_bound_random_vectors
    fam = ts.power_family([0, 1, 2, 4, 6], ts.interval(0.2, 1.5))
    for i in range(40):
        p = ts.SparsePoly(tuple(rng.standard_normal(fam.size)), fam)
        yield f"zeros random_vector {i} {outcome(ts.count_zeros, p)}"
    quintic = ts.monomial_family(list(range(6)), ts.interval(-1, 1))
    zs = ts.NodeSet.of(-0.70031, -0.30017, 0.10023, 0.45041, 0.80013)
    p = ts.poly_from_zeros(quintic, zs, sign="raw", check_certificate=False)
    yield f"zeros quintic - {outcome(ts.count_zeros, p)}"
    quartic = ts.monomial_family(list(range(5)), ts.interval(0, 1))
    p = ts.poly_from_zeros(quartic, ts.NodeSet.of((0.3, 2), (0.7, 2)), check_certificate=False)
    yield f"zeros two_doubles - {outcome(ts.count_zeros, p)}"
    fam = ts.power_family([0, 2, 3, 3.5, 4, 5.5, 8], ts.interval(0.1, 1.2))
    nodes = ts.NodeSet.of((0.7254, 2), (0.9566, 2), (1.2 - 1.83e-8, 2))
    p = ts.poly_from_zeros(fam, nodes, check_certificate=False)
    yield f"zeros window_end - {outcome(ts.count_zeros, p)}"


def refutation_lines():
    rng = np.random.default_rng(42)
    for i in range(40):
        a = float(np.round(rng.uniform(0.3, 1.0), 4))
        b = float(np.round(rng.uniform(0.3, 1.0), 4))
        fam = ts.monomial_family([0, 1, 3], ts.interval(-a, b))
        yield f"refute {i} - {outcome(ts.certify, fam, 'T')}"


def main() -> int:
    for lines in (corpus_lines(), fresh_karlin_lines(), moment_lines(), smoothing_lines(),
                  remez_lines(), snake_lines(), exponential_halfline_lines(), zeros_lines(),
                  refutation_lines()):
        for line in lines:
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
