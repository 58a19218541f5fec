import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsystems import (
    NodeSet,
    SparsePoly,
    best_approx,
    eval_basis,
    extremal_test_polys,
    halfline,
    interval,
    monomial_family,
    optimize_ratio,
    poly_from_zeros,
    power_family,
    snake,
)
from tsystems.errors import NoSeparator
from tsystems.family import FamilySpec
from tsystems.moments import MomentFunctional, _locally_nonneg, _probes

from conftest import lp_best_approx_oracle

snake_mod = sys.modules["tsystems.snake"]


def test_best_approx_parabola():
    fam = monomial_family([0, 1], interval(-1, 1))
    tfam = monomial_family([0, 1, 2], interval(-1, 1))
    res = best_approx(fam, SparsePoly((0.0, 0.0, 1.0), tfam))
    assert abs(res.deviation - 0.5) < 1e-10
    assert np.allclose(res.poly.a, [0.5, 0.0], atol=1e-10)
    assert np.allclose(res.alternation_points, [-1, 0, 1], atol=1e-8)


def test_best_approx_member_is_exact():
    fam = monomial_family([0, 1], interval(-1, 1))
    res = best_approx(fam, SparsePoly((0.3, -0.7), fam))
    assert res.deviation < 1e-13


@pytest.mark.parametrize(
    "fam, coeffs",
    [
        (monomial_family([0, 1], interval(-1, 1)), (0.3, -0.7)),
        (monomial_family([0, 1, 2, 3, 4], interval(0.2, 3.0)), (1e3, -2.0, 0.5, 1e-2, -3e-3)),
        (power_family([0.0, 0.5, 1.5, 2.5], interval(0.1, 1.2)), (-1.0, 4.0, -2.5, 0.25)),
    ],
)
def test_best_approx_member_stops_at_the_rounding_floor(monkeypatch, fam, coeffs):
    # the first exchange's error is rounding noise: no extremum search runs
    def no_search(*args):
        raise AssertionError("_alternant called on a rounding-noise error")

    monkeypatch.setattr(snake_mod, "_alternant", no_search)
    res = best_approx(fam, SparsePoly(coeffs, fam))
    assert len(res.lower_bounds) == 1 and not res.stalled
    assert res.deviation < 1e-13 * max(1.0, max(map(abs, coeffs)))


def test_alternant_evaluation_count_is_independent_of_the_block_count(monkeypatch):
    # err = 1e-3 cos(40 pi x) on [-1, 1] has 81 sign blocks; the lockstep
    # search evaluates f and the basis once per step for all of them (63
    # calls each with 60 golden-section steps)
    fam = monomial_family([0, 1], interval(-1, 1))
    coeffs = np.array([0.3, -0.7])
    f_calls, basis_calls = [], []

    def f(x, order=0):
        f_calls.append(np.size(x))
        return 0.3 - 0.7 * x + 1e-3 * np.cos(40 * np.pi * x)

    xs = np.linspace(-1, 1, 4001)
    err = f(xs) - fam.eval_grid(xs) @ coeffs
    assert 1 + np.count_nonzero(np.diff(np.sign(err))) >= 50
    f_calls.clear()
    real = FamilySpec.eval_grid
    monkeypatch.setattr(
        FamilySpec, "eval_grid", lambda self, x, order=0: basis_calls.append(1) or real(self, x, order)
    )
    ref = snake_mod._alternant(xs, err, 3, f, fam, coeffs)
    assert len(f_calls) <= 8 and len(basis_calls) <= 8
    e = f(ref) - real(fam, ref) @ coeffs
    assert len(ref) == 3 and np.all(e[1:] * e[:-1] < 0)
    assert np.all(np.abs(e) >= (1 - 1e-9) * 1e-3)


def _block_maxima(f, xs):
    """Each sign block's maximum of sign * f on [its left neighbour, its right
    neighbour]: a dense scan, then golden sections between the scan points
    around the scan's best."""
    sign = np.where(f(xs) < 0, -1.0, 1.0)
    cuts = np.flatnonzero(sign[1:] != sign[:-1]) + 1
    out = []
    for i, j in zip(np.concatenate([[0], cuts]), np.concatenate([cuts - 1, [len(xs) - 1]])):
        h = lambda t: sign[i] * f(t)
        t = np.linspace(xs[max(i - 1, 0)], xs[min(j + 1, len(xs) - 1)], 20001)
        k = int(np.argmax(h(t)))
        a, b = t[max(k - 1, 0)], t[min(k + 1, len(t) - 1)]
        for _ in range(100):
            c, d = b - 0.618 * (b - a), a + 0.618 * (b - a)
            a, b = (a, d) if h(c) >= h(d) else (c, b)
        out.append(max((a, b, t[k]), key=h))
    return np.array(out)


@pytest.mark.parametrize("f, xs", [
    # 81 blocks, skewed by exp(x); the first block's maximum is the window end -1
    (lambda x: np.exp(x) * np.cos(40 * np.pi * np.asarray(x, float) + 0.3), np.linspace(-1, 1, 4001)),
    # 55 blocks of one or two grid points, a one-point block at -1
    (lambda x: np.cos(84 * np.asarray(x, float) + 0.3), np.linspace(-1, 1, 81)),
    # 40 blocks, skewed by exp(2x): a search that stops at its first short
    # parabolic step leaves maxima 1e-8 of the window off
    (lambda x: np.exp(2 * x) * np.sin(60 * np.asarray(x, float) + 0.1), np.linspace(-1, 1, 4001)),
])
def test_alternant_points_are_the_block_extrema(f, xs):
    want = _block_maxima(f, xs)
    assert want[0] == -1.0  # a block whose maximum is a window end
    fam = monomial_family([0, 1], interval(-1, 1))
    ref = snake_mod._alternant(xs, f(xs), len(want), lambda x, order=0: f(x), fam, np.zeros(2))
    assert len(ref) == len(want)
    assert np.max(np.abs(ref - want)) <= 1e-9 * (xs[-1] - xs[0])


def test_alternant_returns_window_end_extrema_exactly():
    # err = 2x^2 - 1 on [-1, 1] peaks at both window ends: they come back as
    # -1 and 1, not as the midpoints of the last golden brackets just inside
    fam = monomial_family([0, 1], interval(-1, 1))
    xs = np.linspace(-1, 1, 4001)
    f = lambda x, order=0: 2 * np.asarray(x, float) ** 2 - 1
    ref = snake_mod._alternant(xs, f(xs), 3, f, fam, np.zeros(2))
    assert ref[0] == -1.0 and ref[-1] == 1.0 and abs(ref[1]) < 1e-8
    # err = cos(2.5 pi x) vanishes at the ends: the interior extrema stay
    f = lambda x, order=0: np.cos(2.5 * np.pi * np.asarray(x, float))
    ref = snake_mod._alternant(xs, f(xs), 5, f, fam, np.zeros(2))
    assert np.allclose(ref, [-0.8, -0.4, 0.0, 0.4, 0.8], atol=1e-8)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_best_approx_alternation_theorem(n, seed):
    # the draws of criterion 8: a converged solve equioscillates at n + 2
    # points with the deviation (the Chebyshev alternation theorem)
    rng = np.random.default_rng(seed)
    fam = monomial_family(list(range(n + 1)), interval(-1, 1))
    ext = monomial_family(list(range(n + 3)), interval(-1, 1))
    f = SparsePoly(tuple(rng.standard_normal(n + 3)), ext)
    res = best_approx(fam, f)
    if res.stalled:
        return
    pts = np.array(res.alternation_points)
    e = f(pts) - res.poly(pts)
    assert len(pts) == n + 2 and np.all(e[1:] * e[:-1] < 0)
    assert np.sign(e[0]) == res.sign
    assert np.all(np.abs(e) >= (1 - 1e-9) * res.deviation)


def test_best_approx_cubic_known_value():
    # best affine approximation of x^3 on [-1,1] is (3/4) x with deviation 1/4
    fam = monomial_family([0, 1], interval(-1, 1))
    tfam = monomial_family([0, 1, 2, 3], interval(-1, 1))
    res = best_approx(fam, SparsePoly((0, 0, 0, 1.0), tfam))
    assert abs(res.deviation - 0.25) < 1e-10
    assert np.allclose(res.poly.a, [0.0, 0.75], atol=1e-9)


def test_best_approx_lp_oracle_agreement(rng):
    for _ in range(6):
        n = int(rng.integers(1, 5))
        fam = monomial_family(list(range(n + 1)), interval(-1, 1))
        coeffs = rng.standard_normal(n + 3)
        tfam = monomial_family(list(range(n + 3)), interval(-1, 1))
        f = SparsePoly(tuple(coeffs), tfam)
        res = best_approx(fam, f)
        xs = np.linspace(-1, 1, 1501)
        dev_lp, _ = lp_best_approx_oracle(fam, f(xs), xs)
        assert abs(res.deviation - dev_lp) < 1e-6 * max(1.0, dev_lp) + 1e-9


def test_best_approx_monotone_lower_bounds():
    # the Remez lower bound (the solved |d|) is nondecreasing across iterations
    fam = monomial_family([0, 1, 2], interval(-1, 1))
    f = lambda x, order=0: np.abs(np.asarray(x)) if order == 0 else np.sign(np.asarray(x))
    res = best_approx(fam, f)
    lb = np.array(res.lower_bounds)
    assert len(lb) >= 2
    assert np.all(np.diff(lb) >= -1e-12 * max(1.0, res.deviation))
    assert lb[-1] <= res.deviation + 1e-12


def test_best_approx_degenerate_exchange_at_a_zero_level():
    # the equispaced reference [-1, 0, 1] is interpolated exactly, so d = 0,
    # and the error x^2 - x^4 >= 0 has a single sign block: the worst point
    # enters by the single exchange, which keeps the reference sorted, so no
    # lower bound exceeds the minimax deviation 1/8 (the constant 1/8)
    fam = monomial_family([0, 1], interval(-1, 1))
    f = lambda x, order=0: np.asarray(x) ** 2 - np.asarray(x) ** 4
    res = best_approx(fam, f, init="equispaced")
    lb = np.array(res.lower_bounds)
    assert lb[0] == 0.0 and not res.stalled
    assert np.all(np.diff(lb) >= 0) and np.all(lb <= 0.125 + 1e-15)
    assert abs(res.deviation - 0.125) <= 1e-15
    assert np.all(np.diff(res.alternation_points) > 0)


def test_best_approx_reports_a_stall_when_max_iter_runs_out():
    # exp(sin 3x) from cubics on [-1, 1] needs more than two exchanges: a run
    # cut at max_iter has not met tol and must say so
    fam = monomial_family([0, 1, 2, 3], interval(-1, 1))
    f = lambda x: np.exp(np.sin(3 * np.asarray(x)))
    res = best_approx(fam, f, max_iter=2)
    assert len(res.lower_bounds) == 2 and res.stalled
    assert not best_approx(fam, f).stalled


def test_best_approx_two_references_agree(rng):
    fam = monomial_family([0, 1, 2], interval(0, 1))
    tfam = monomial_family([0, 1, 2, 3, 4], interval(0, 1))
    f = SparsePoly(tuple(rng.standard_normal(5)), tfam)
    r1 = best_approx(fam, f, init="chebyshev")
    r2 = best_approx(fam, f, init="equispaced")
    assert abs(r1.deviation - r2.deviation) < 1e-10 * max(1, r1.deviation)
    assert np.allclose(r1.poly.a, r2.poly.a, atol=1e-8)


@pytest.mark.parametrize("x_new, side, ref, sides", [
    # beyond an end, on that end's side: the point replaces it
    (-0.5, "lower", [-0.5, 0.5, 1.0], ["lower", "upper", "lower"]),
    (1.5, "lower", [0.0, 0.5, 1.5], ["lower", "upper", "lower"]),
    # beyond an end, on the other side: it enters and the far end leaves
    (-0.5, "upper", [-0.5, 0.0, 0.5], ["upper", "lower", "upper"]),
    (1.5, "upper", [0.5, 1.0, 1.5], ["upper", "lower", "upper"]),
    # inside: it replaces the neighbour on its side
    (0.3, "upper", [0.0, 0.3, 1.0], ["lower", "upper", "lower"]),
    (0.3, "lower", [0.3, 0.5, 1.0], ["lower", "upper", "lower"]),
])
def test_exchange_keeps_the_reference_sorted_and_alternating(x_new, side, ref, sides):
    new_ref, new_sides = snake_mod._exchange([0.0, 0.5, 1.0], ["lower", "upper", "lower"],
                                             x_new, side)
    assert new_ref.tolist() == ref and new_sides == sides


def test_snake_affine_band():
    fam = monomial_family([0, 1], interval(-1, 1))
    sol = snake(fam, -1.0, 1.0, which="f_star")
    assert np.allclose(sol.poly.a, [0.0, 1.0], atol=1e-10)
    assert [s for _, s in sol.touch_points] == ["lower", "upper"]
    sol2 = snake(fam, -1.0, 1.0, which="f_upper_star")
    assert np.allclose(sol2.poly.a, [0.0, -1.0], atol=1e-10)


def test_snake_band_around_member():
    # band f +- eps around a family member: the snake is f plus the scaled
    # Chebyshev-pattern snake of [-eps, eps]
    fam = monomial_family([0, 1, 2], interval(0, 1))
    ftarget = SparsePoly((0.5, -1.0, 2.0), fam)
    eps = 0.1

    def g1(x, order=0):
        return ftarget(x, order) - (eps if order == 0 else 0.0)

    def g2(x, order=0):
        return ftarget(x, order) + (eps if order == 0 else 0.0)

    sol = snake(fam, g1, g2, which="f_star")
    # shifted Chebyshev pattern on [0,1]: T2(2x-1) = 8x^2 - 8x + 1
    expect = ftarget.a + eps * np.array([1.0, -8.0, 8.0])
    assert np.allclose(sol.poly.a, expect, atol=1e-8)
    assert sol.max_violation <= 1e-10


def test_snake_constant_family():
    fam = monomial_family([0], interval(0, 1))

    def g2(x, order=0):
        return 3 + np.asarray(x, dtype=float) if order == 0 else np.ones_like(np.asarray(x))

    sol = snake(fam, -2.0, g2, which="f_star")
    assert abs(sol.poly.a[0] - 3.0) < 1e-9  # min of g2
    sol2 = snake(fam, -2.0, g2, which="f_upper_star")
    assert abs(sol2.poly.a[0] + 2.0) < 1e-9  # max of g1


def test_snake_no_separator():
    fam = monomial_family([0], interval(0, 1))
    with pytest.raises(NoSeparator):
        # bounds cross: no constant fits strictly between
        snake(fam, lambda x: np.asarray(x, float), lambda x: 1 - np.asarray(x, float))


def test_snake_lp_oracle_for_affine_band(rng):
    # LP oracle: among band polynomials, the slope coefficient is maximized
    # uniquely by the snake f_* for the band [-1, 1] over {1, x}
    from scipy.optimize import linprog

    fam = monomial_family([0, 1], interval(-1, 1))
    xs = np.linspace(-1, 1, 1001)
    basis = fam.eval_grid(xs)
    c = np.zeros(2)
    c[1] = -1.0
    A = np.vstack([basis, -basis])
    b = np.concatenate([np.ones(len(xs)), np.ones(len(xs))])
    res = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * 2, method="highs")
    sol = snake(fam, -1.0, 1.0, which="f_star")
    assert np.allclose(res.x, sol.poly.a, atol=1e-9)


def _no_lp(*args, **kwargs):
    raise AssertionError("the grid LP ran")


def _count_lp(monkeypatch) -> list:
    calls, real = [], snake_mod.linprog
    monkeypatch.setattr(snake_mod, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def _band_on_grid(fam, g1, g2, grid=2001):
    """basis, g1, g2 and the margin level on snake's grid, as snake evaluates them."""
    lo, hi = fam.domain.window()
    xs = np.linspace(lo, hi, grid)
    v1 = snake_mod._call(snake_mod._as_callable(g1, fam), xs)
    v2 = snake_mod._call(snake_mod._as_callable(g2, fam), xs)
    return fam.eval_grid(xs), v1, v2, 1e-12 * max(float(np.max(v2 - v1)), 1.0)


def test_snake_crossing_bounds_are_refused_without_the_lp(monkeypatch):
    # min (g2 - g1)/2 bounds every separator's margin
    monkeypatch.setattr(snake_mod, "linprog", _no_lp)
    test_snake_no_separator()


@pytest.mark.parametrize("g2", [np.inf, np.nan, lambda x: np.where(np.asarray(x) > 0.5, np.inf, 1.0)])
def test_snake_rejects_bounds_that_are_not_finite(g2):
    with pytest.raises(ValueError):
        snake(monomial_family([0, 1], interval(0, 1)), -1.0, g2)


def test_snake_lp_separates_where_the_witness_misses(monkeypatch):
    # x^2 +- 0.13 over {1, x} on [0, 1]: the least-squares line misses x^2 by
    # 1/6 at the ends, beyond the half-width, while the minimax error is 1/8
    fam = monomial_family([0, 1], interval(0, 1))
    sq = SparsePoly((0.0, 0.0, 1.0), monomial_family([0, 1, 2], interval(0, 1)))

    def g1(x, order=0):
        return sq(x, order) - (0.13 if order == 0 else 0.0)

    def g2(x, order=0):
        return sq(x, order) + (0.13 if order == 0 else 0.0)

    basis, v1, v2, _ = _band_on_grid(fam, g1, g2)
    assert abs(snake_mod._witness_margin(basis, v1, v2) - (0.13 - 1 / 6)) < 1e-3
    calls = _count_lp(monkeypatch)
    sol = snake(fam, g1, g2, which="f_star")
    assert calls == [1] and sol.max_violation <= 1e-10


@pytest.mark.parametrize("width", [0.5, 1.0])
def test_snake_lp_refuses_where_the_witness_misses(monkeypatch, width):
    # a band that rises by 1 over [0, 1] holds no constant when it is 0.5
    # wide; 1 wide, the constant 1 touches both bounds and the witness's
    # margin is 0, not above the level
    fam = monomial_family([0], interval(0, 1))
    calls = _count_lp(monkeypatch)
    with pytest.raises(NoSeparator):
        snake(fam, lambda x: np.asarray(x, float), lambda x: np.asarray(x, float) + width)
    assert calls == [1]


def test_snake_weighted_witness_separates_a_band_that_narrows(monkeypatch):
    # x^2 +- (0.01 + 2x) over {1, x} on [0, 1]: the plain least-squares line
    # misses by 0.16 at x = 0, the fit weighted by 1/half-width separates
    monkeypatch.setattr(snake_mod, "linprog", _no_lp)
    fam = monomial_family([0, 1], interval(0, 1))
    sq = SparsePoly((0.0, 0.0, 1.0), monomial_family([0, 1, 2], interval(0, 1)))

    def g1(x, order=0):
        return sq(x, order) - (0.01 + 2 * np.asarray(x, float) if order == 0 else 2.0)

    def g2(x, order=0):
        return sq(x, order) + (0.01 + 2 * np.asarray(x, float) if order == 0 else 2.0)

    sol = snake(fam, g1, g2, which="f_star")
    assert sol.max_violation <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_snake_desk_bands_need_no_lp(monkeypatch, n):
    # -1 <= p <= 1 over monomials on [a, b]: the midline 0 is the witness
    monkeypatch.setattr(snake_mod, "linprog", _no_lp)
    rng = np.random.default_rng(n)
    for _ in range(3):
        a = float(rng.uniform(-1.0, 0.5))
        fam = monomial_family(list(range(n + 1)), interval(a, a + float(rng.uniform(0.5, 2.5))))
        for which in ("f_star", "f_upper_star"):
            sol = snake(fam, -1.0, 1.0, which=which)
            assert len(sol.touch_points) == n + 1 and sol.max_violation <= 1e-10


def _random_band(kind, n, rng):
    """g1, g2 on monomials 0..n over a random window: the bound kinds snake accepts."""
    a = float(rng.uniform(-1.0, 0.5))
    dom = interval(a, a + float(rng.uniform(0.5, 2.5)))
    fam = monomial_family(list(range(n + 1)), dom)
    w1, w2 = 10.0 ** rng.uniform(-3, 0.5, 2) * rng.choice([1.0, 1.0, 1.0, -1.0], 2)
    if kind == "constant":
        return fam, -w1, w2
    if kind == "affine":
        s1, s2 = rng.standard_normal(2)
        return fam, (lambda x: s1 * np.asarray(x, float) - w1), (lambda x: s2 * np.asarray(x, float) + w2)
    if kind == "polynomial":
        ext = monomial_family(list(range(n + 3)), dom)
        c = rng.standard_normal(n + 3)
        e0 = np.eye(n + 3)[0]
        return fam, SparsePoly(tuple(c - w1 * e0), ext), SparsePoly(tuple(c + w2 * e0), ext)
    k, phase = rng.uniform(1, 8), rng.uniform(0, np.pi)
    return (fam, lambda x: np.sin(k * np.asarray(x, float) + phase) - w1,
            lambda x: np.sin(k * np.asarray(x, float) + phase) + w2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from(["constant", "affine", "polynomial", "callable"]),
    st.integers(0, 4),
    st.integers(0, 2**32 - 1),
)
def test_separation_decision_equals_the_lp_decision(kind, n, seed):
    # the bound and the witness decide as the LP does; where only the witness
    # accepts, its margin is an explicit proof the LP missed
    fam, g1, g2 = _random_band(kind, n, np.random.default_rng(seed))
    basis, v1, v2, level = _band_on_grid(fam, g1, g2, grid=501)
    decided = snake_mod._separable(basis, v1, v2, level)
    if decided != (snake_mod._lp_margin(basis, v1, v2) > level):
        assert decided and snake_mod._witness_margin(basis, v1, v2) > level


def test_snake_approx_consistency(rng):
    # deviation from the snake construction with d = 1/|c| matches best_approx
    for n in (1, 2, 3):
        fam = monomial_family(list(range(n + 1)), interval(-1, 1))
        ext = monomial_family(list(range(n + 2)), interval(-1, 1))
        f = SparsePoly(tuple([0.0] * (n + 1) + [1.0]), ext)
        res = best_approx(fam, f)
        sol = snake(ext, -1.0, 1.0, which="f_upper_star")
        c = sol.poly.a[-1]
        assert abs(1 / abs(c) - res.deviation) < 1e-8 * max(1, res.deviation)


def test_optimize_ratio_identity():
    fam = monomial_family([0, 1, 2], interval(0, 1))
    S = MomentFunctional((1.0, 0.5, 1 / 3), fam)
    val, poly, top5 = optimize_ratio(fam, S, S)
    assert abs(val - 1.0) < 1e-12


def test_optimize_ratio_evaluation_vs_integral(rng):
    fam = monomial_family([0, 1, 2], interval(0, 1))
    S = MomentFunctional((1.0, 0.5, 1 / 3), fam)
    x0 = 0.3
    L = MomentFunctional(tuple(eval_basis(fam, x0)), fam)
    val, poly, top5 = optimize_ratio(fam, L, S, sense="max")
    # brute-force over the extremal parameter grid
    best = -np.inf
    for t in np.linspace(0.005, 0.995, 200):
        p = poly_from_zeros(fam, NodeSet.of((t, 2)), check_certificate=False)
        best = max(best, L(p) / S(p))
    p_ab = poly_from_zeros(fam, NodeSet.of((0.0, 1), (1.0, 1)), check_certificate=False)
    best = max(best, L(p_ab) / S(p_ab))
    assert val >= best - 1e-6
    assert abs(val - best) < 1e-3 * max(1, abs(best))


def test_optimize_ratio_constant_family():
    fam = monomial_family([0], interval(0, 1))
    L = MomentFunctional((2.0,), fam)
    S = MomentFunctional((4.0,), fam)
    val, poly, _ = optimize_ratio(fam, L, S)
    assert abs(val - 0.5) < 1e-12


def test_optimize_ratio_top5_lists_distinct_basins():
    # the documented optimize_ratio problem file: every start of the interior
    # pattern ends at theta = 0.915, which must be listed once
    fam = monomial_family([0, 1, 2], interval(0, 1))
    L = MomentFunctional((1.0, 0.3, 0.09), fam)
    S = MomentFunctional((1.0, 0.5, 0.333), fam)
    val, _, top5 = optimize_ratio(fam, L, S, sense="max")
    assert top5[0][0] == val and abs(top5[0][2][0] - 0.915) < 1e-8
    assert len(top5) >= 2
    for i, (_, pat_i, th_i) in enumerate(top5):
        for _, pat_j, th_j in top5[i + 1 :]:
            assert pat_i != pat_j or np.max(np.abs(np.subtract(th_i, th_j)), initial=0.0) >= 1e-6


def test_optimize_ratio_halfline():
    # L = delta_1, S = delta_0.5 + delta_20: the optimum (x - theta)^2 has its
    # double zero at 20.527, beyond the 10-wide window of the domain
    fam = monomial_family([0, 1, 2], halfline(0.0))
    L = MomentFunctional((1.0, 1.0, 1.0), fam)
    S = MomentFunctional((2.0, 20.5, 400.25), fam)
    val, poly, _ = optimize_ratio(fam, L, S)
    assert val >= 0.95003 - 1e-6
    assert _locally_nonneg(poly, _probes(fam))


def test_optimize_ratio_order5_matches_scan():
    # L = delta_0.7, S = the mean over 50 equispaced points; the result must be
    # nonnegative and match a zooming theta scan of both patterns
    fam = power_family([0.0, 0.5, 1.5, 2.0, 3.5, 4.5], interval(0.1, 1.2))
    L = MomentFunctional(tuple(eval_basis(fam, 0.7)), fam)
    S = MomentFunctional(tuple(fam.eval_grid(np.linspace(0.1, 1.2, 50)).mean(axis=0)), fam)
    val, poly, _ = optimize_ratio(fam, L, S)
    probes = _probes(fam)
    assert _locally_nonneg(poly, probes)

    def ratio(pattern, theta):
        if not 0.1 < theta[0] < theta[1] < 1.2:
            return -np.inf
        p = extremal_test_polys(fam, pattern, theta)
        return L(p) / S(p) if S(p) > 0 and _locally_nonneg(p, probes) else -np.inf

    axis = np.linspace(0.1, 1.2, 23)[1:-1]
    best = max((ratio(pat, (t1, t2)), pat, (t1, t2))
               for pat in ("a_doubles", "doubles_b")
               for i, t1 in enumerate(axis) for t2 in axis[i + 1:])
    step = axis[1] - axis[0]
    for _ in range(12):
        _, pat, (c1, c2) = best
        step /= 2.5
        d = step * np.arange(-3, 4)
        best = max([best] + [(ratio(pat, (c1 + u, c2 + v)), pat, (c1 + u, c2 + v))
                             for u in d for v in d])
    assert val == pytest.approx(best[0], rel=1e-6)
