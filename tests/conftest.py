"""Shared helpers: instance generators and independent oracles."""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from tsystems import SparsePoly, moments


def random_nonneg_dense(deg, dom, rng):
    """Dense nonnegative polynomial on the domain: square + weighted square."""
    g1 = rng.standard_normal(deg // 2 + 1)
    g2 = rng.standard_normal(max((deg - 1) // 2, 0) + 1)
    p = np.convolve(g1, g1)
    if dom.kind == "closed_interval":
        w = np.convolve(np.convolve([-dom.a, 1.0], [dom.b, -1.0]), np.convolve(g2, g2))
    elif dom.kind == "left_closed_halfline":
        w = np.convolve([0.0, 1.0], np.convolve(g2, g2))
    else:
        w = np.convolve(g2, g2)[: 2 * (deg // 2) + 1]
    n = max(len(p), len(w))
    pd = np.zeros(n)
    pd[: len(p)] += p
    pd[: len(w)] += w
    return pd


def random_strictly_positive(family, rng, lift=0.15, grid=1001):
    """Random strictly positive polynomial in the family span (f_0 > 0 lift)."""
    lo, hi = family.domain.window()
    xs = np.linspace(lo, hi, grid)
    coeffs = rng.standard_normal(family.size)
    vals = family.eval_grid(xs) @ coeffs
    base = family.eval_grid(xs)[:, 0]
    assert np.min(base) > 0
    coeffs[0] += (-min(float(vals.min()), 0.0) + lift * float(np.max(np.abs(vals)))) / float(
        np.min(base)
    )
    return SparsePoly(tuple(coeffs), family)


def lp_best_approx_oracle(family, fvals, xs):
    """Grid LP oracle for the minimax problem: minimize t, |f - p| <= t."""
    basis = family.eval_grid(xs)
    G, nv = len(xs), family.size
    c = np.zeros(nv + 1)
    c[-1] = 1.0
    A_ub = np.vstack(
        [
            np.hstack([basis, -np.ones((G, 1))]),
            np.hstack([-basis, -np.ones((G, 1))]),
        ]
    )
    b_ub = np.concatenate([fvals, -fvals])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * (nv + 1), method="highs")
    assert res.success
    return float(res.x[-1]), res.x[:nv]


def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@functools.cache
def perfbench_checks():
    """perfbench/checks.py, the benchmark's independent output checks (numpy
    and scipy only, never the solver they check)."""
    return _perfbench_module("checks")


@functools.cache
def perfbench_workloads():
    """perfbench/workloads.py, the benchmark's instance generators; its
    ``import checks`` is given perfbench_checks() while it loads."""
    saved = sys.modules.get("checks")
    sys.modules["checks"] = perfbench_checks()
    try:
        return _perfbench_module("workloads")
    finally:
        if saved is None:
            del sys.modules["checks"]
        else:
            sys.modules["checks"] = saved


@pytest.fixture
def rng():
    return np.random.default_rng(20240808)


@pytest.fixture(autouse=True)
def fresh_primal_memo():
    """Each test starts with no memoized grid fit or primal engine result, so
    one that counts the engine's work does not find a result an earlier test
    made."""
    moments._last.clear()
