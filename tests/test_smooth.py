import math

import numpy as np
import pytest

from tsystems import certify, custom_family, interval, monomial_family
from tsystems.errors import QuadratureBudgetExceeded
from tsystems.smooth import (
    KernelSpec,
    gaussian_kernel,
    gaussian_smooth,
    kernel_tp_check,
    tabulate_smoothed,
)


def test_gaussian_kernel_normalization():
    xs = np.linspace(-8, 8, 4001)
    mass = np.trapezoid(gaussian_kernel(xs, 1.0), xs)
    assert abs(mass - 1.0) < 1e-10


def test_gaussian_kernel_derivatives_match_fd():
    sigma = 0.7
    xs = np.linspace(-2, 2, 11)
    h = 1e-6
    for k in (1, 2, 3):
        exact = gaussian_kernel(xs, sigma, k)
        fd = (gaussian_kernel(xs + h, sigma, k - 1) - gaussian_kernel(xs - h, sigma, k - 1)) / (2 * h)
        assert np.max(np.abs(exact - fd)) < 1e-6 * np.max(np.abs(exact) + 1)


def test_smooth_constant_stays_one():
    fam = monomial_family([0], interval(0, 1))
    sm = gaussian_smooth(fam, KernelSpec("gaussian", 0.05))
    # kernel mass 1 up to truncation error <= exp(-T^2/2)
    assert abs(sm.eval_one(0, 0.5) - 1.0) < 1e-12


def test_smooth_linear_is_exact_inside():
    # constant continuation keeps x exactly in the deep interior
    fam = monomial_family([0, 1], interval(0, 1))
    sm = gaussian_smooth(fam, KernelSpec("gaussian", 0.05))
    assert abs(sm.eval_one(1, 0.5) - 0.5) < 1e-10


def test_smoothed_family_passes_et():
    fam = monomial_family([0, 1, 3], interval(0, 1))
    assert certify(fam, "ET", grid=81, budget=3000).level == "none"
    sm = gaussian_smooth(fam, KernelSpec("gaussian", 0.05))
    cert = certify(sm, "ET", grid=61, budget=2000, window=(0.1, 0.9))
    assert cert.level == "ET"


def test_one_quadrature_serves_all_members():
    # every smoothed member at a new point comes from one pass over the nodes
    calls = [0, 0, 0]

    def member(i):
        def ev(x, order=0):
            calls[i] += 1
            return x**i
        return ev

    src = custom_family([member(i) for i in range(3)], interval(0, 1))
    panels = 16
    sm = gaussian_smooth(src, KernelSpec("gaussian", 0.05, None, panels))
    calls[:] = [0, 0, 0]
    sm.eval_grid(np.array([0.37]))
    assert all(0 < c <= (panels + 2) * 8 for c in calls), calls


def _smoothed_reference(fam, x, sigma, order, truncation=8.0):
    """Every member's order-th smoothed derivative at x, orders 0-2: 32-point
    Gauss-Legendre on 200 panels per piece, split where the clipping kinks."""
    a, b = fam.domain.a, fam.domain.b
    lo, hi = x - truncation * sigma, x + truncation * sigma
    cuts = np.unique(np.clip([lo, a, b, hi], lo, hi))
    nodes, weights = np.polynomial.legendre.leggauss(32)
    total = np.zeros(fam.size)
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        edges = np.linspace(c0, c1, 201)
        mid = (edges[:-1] + edges[1:])[:, None] / 2
        half = (edges[1:] - edges[:-1])[:, None] / 2
        ys = (mid + half * nodes).ravel()
        t = (x - ys) / sigma
        phi = np.exp(-0.5 * t * t) / (sigma * math.sqrt(2 * math.pi))
        kern = phi * [1.0, -t / sigma, (t * t - 1) / sigma**2][order]
        total += ((half * weights).ravel() * kern) @ fam.eval_grid(np.clip(ys, a, b))
    return total


@pytest.mark.parametrize(
    "degrees, sigma", [([0, 1, 3], 0.05), ([0, 2, 5], 0.03), ([0, 1, 2, 4], 0.08)]
)
def test_smoothed_values_and_derivatives_match_reference(degrees, sigma):
    fam = monomial_family(degrees, interval(0, 1))
    sm = gaussian_smooth(fam, KernelSpec("gaussian", sigma))
    xs = np.array([0.0, 0.02, 0.31, 0.5, 0.97, 1.0])
    for order in (0, 1, 2):
        got = sm.eval_grid(xs, order)
        for x, row in zip(xs, got):
            want = _smoothed_reference(fam, float(x), sigma, order)
            assert np.all(np.abs(row - want) <= 1e-9 * np.maximum(1.0, np.abs(want))), (x, order)


def test_quadrature_report_and_budget():
    fam = monomial_family([0, 3, 5], interval(0, 1))
    tol, T = 1e-10, 8.0
    _, report = gaussian_smooth(fam, KernelSpec("gaussian", 0.05), tol=tol, return_report=True)
    scale = max(1.0, float(np.max(np.abs(fam.eval_grid(np.linspace(0.05, 0.95, 5))))))
    assert report["quadrature_error_estimate"] <= max(tol * scale, 10 * math.exp(-T * T / 2))
    assert report["panels"] == 64 and report["sigma"] == 0.05
    with pytest.raises(QuadratureBudgetExceeded):
        gaussian_smooth(fam, KernelSpec("gaussian", 0.05, None, 4, 8.0))


def test_sigma_to_zero_interior_convergence():
    fam = monomial_family([0, 1, 3], interval(0, 1))
    errs = []
    for sigma in (0.1, 0.05, 0.025):
        sm = gaussian_smooth(fam, KernelSpec("gaussian", sigma))
        xs = np.linspace(0.3, 0.7, 7)
        e = max(
            abs(sm.eval_one(i, float(x)) - fam.eval_one(i, float(x)))
            for i in range(3)
            for x in xs
        )
        errs.append(e)
    assert errs[0] > errs[1] > errs[2]


def test_gaussian_stp3():
    xg = np.linspace(-1, 1, 6)
    yg = np.linspace(-0.5, 1.5, 6)
    r = kernel_tp_check(KernelSpec("gaussian", 1.0), xg, yg, k=3)
    assert r["passed"] and r["exhaustive"]


def test_power_kernel_stp2():
    r = kernel_tp_check(
        lambda x, y: y**x, np.linspace(0, 2, 5), np.linspace(0.2, 1.0, 5), k=2
    )
    assert r["passed"]


def test_rank_one_kernel_fails():
    r = kernel_tp_check(lambda x, y: 1.0, np.linspace(0, 1, 4), np.linspace(0, 1, 4), k=2)
    assert not r["passed"]
    assert r["counterexample"] is not None


def test_gaussian_etp_with_derivative_columns():
    xg = np.linspace(-1, 1, 5)
    yg = np.linspace(-1, 1, 5)
    r = kernel_tp_check(KernelSpec("gaussian", 1.0), xg, yg, k=2, extended=True)
    assert r["passed"]


def test_composition_formula_spot_check(rng):
    # Cauchy-Binet for a discrete measure: M = K L with mu = sum of atoms;
    # det M(x1 x2; z1 z2) = sum over ordered pairs y1 < y2 of
    # det K(x; y) det L(y; z)
    ys = np.linspace(0.0, 1.0, 5)
    K = lambda x, y: math.exp(-((x - y) ** 2))
    L = lambda y, z: 1.0 / (1.0 + y + z)
    xs = [0.1, 0.9]
    zs = [0.2, 0.7]

    def M(x, z):
        return sum(K(x, y) * L(y, z) for y in ys)

    detM = M(xs[0], zs[0]) * M(xs[1], zs[1]) - M(xs[0], zs[1]) * M(xs[1], zs[0])
    total = 0.0
    for i in range(len(ys)):
        for j in range(i + 1, len(ys)):
            dK = K(xs[0], ys[i]) * K(xs[1], ys[j]) - K(xs[0], ys[j]) * K(xs[1], ys[i])
            dL = L(ys[i], zs[0]) * L(ys[j], zs[1]) - L(ys[i], zs[1]) * L(ys[j], zs[0])
            total += dK * dL
    assert abs(detM - total) < 1e-10 * max(abs(detM), 1.0)


def test_tabulate_smoothed_shape():
    fam = monomial_family([0, 1], interval(0, 1))
    sm = gaussian_smooth(fam, KernelSpec("gaussian", 0.1))
    xs = np.linspace(0.2, 0.8, 5)
    table = tabulate_smoothed(sm, xs, max_order=1)
    assert table.shape == (5, 1 + 2 * 2)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("gaussian", -1.0)
    with pytest.raises(ValueError):
        KernelSpec("gaussian", 1.0, None, 64, 2.0)  # truncation < 4
