import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsystems import (
    SparsePoly,
    decompose_halfline,
    decompose_nonneg_ab,
    decompose_pos_ab,
    decompose_realline,
    halfline,
    interval,
    lukacs_decompose,
    monomial_family,
    power_family,
    real_line,
)
from tsystems.errors import (
    NegativeSomewhere,
    NotPositive,
    OddDegree,
    TooManyZeros,
)
from tsystems.family import halfline_xmax
from tsystems.karlin import (
    CONVERGED_TOL,
    POS_GRID,
    _interlaced,
    _newton,
    _root_window,
    _solve_span,
    _inadmissible,
    _TangencySolver,
)

from conftest import random_nonneg_dense, random_strictly_positive


def check_decomposition(dec, f, grid=None):
    """Common decomposition invariants on a 5000-point grid."""
    fam = f.family
    lo, hi = fam.domain.window() if grid is None else grid
    xs = np.linspace(lo, hi, 5000)
    fv = f(xs)
    scale = float(np.max(np.abs(fv)))
    # additivity by construction (f^* := f - f_*), exact to round-off in the
    # parts' own coefficient magnitude
    part_scale = max(float(np.max(np.abs(dec.f_lower.a))), 1.0)
    assert np.max(np.abs(dec.f_lower.a + dec.f_upper.a - f.a)) <= 4e-16 * part_scale
    if dec.converged:
        assert dec.touch_residual < CONVERGED_TOL
    # nonnegativity of both parts
    assert dec.f_lower(xs).min() >= -1e-9 * scale
    assert dec.f_upper(xs).min() >= -1e-9 * scale


def test_pos_ab_power_alpha_family():
    # the classical split of 1 over {1, x^alpha} on [0, 1]
    for alpha in (0.5, 1.0, 2.0):
        fam = power_family([0, alpha], interval(0, 1))
        f = SparsePoly((1.0, 0.0), fam)
        dec = decompose_pos_ab(f)
        assert np.allclose(dec.f_lower.a, [0.0, 1.0], atol=1e-12)
        assert np.allclose(dec.f_upper.a, [1.0, -1.0], atol=1e-12)
        assert dec.converged


def test_pos_ab_parabola_hand_computed():
    # f = x^2 + 1 on [-1, 1]: f_* = 2x^2, f^* = 1 - x^2
    fam = monomial_family([0, 1, 2], interval(-1, 1))
    f = SparsePoly((1.0, 0.0, 1.0), fam)
    dec = decompose_pos_ab(f)
    assert np.allclose(dec.f_lower.a, [0, 0, 2], atol=1e-9)
    assert np.allclose(dec.f_upper.a, [1, 0, -1], atol=1e-9)
    check_decomposition(dec, f)
    # endpoint conditions
    assert abs(dec.f_upper(1.0)) < 1e-9
    assert abs(dec.f_lower(1.0) - f(1.0)) < 1e-9


def test_pos_ab_constant():
    fam = monomial_family([0], interval(0, 1))
    dec = decompose_pos_ab(SparsePoly((3.0,), fam))
    assert dec.f_lower.a[0] == 3.0 and dec.f_upper.a[0] == 0.0


def test_pos_ab_rejects_nonpositive():
    fam = monomial_family([0, 1], interval(0, 1))
    with pytest.raises(NotPositive):
        decompose_pos_ab(SparsePoly((-0.1, 1.0), fam))


def test_pos_ab_zero_sets_have_full_index_and_interlace(rng):
    for trial in range(6):
        n = int(rng.integers(2, 7))
        fam = monomial_family(list(range(n + 1)), interval(0.2, 1.7))
        f = random_strictly_positive(fam, rng)
        dec = decompose_pos_ab(f)
        check_decomposition(dec, f)
        from tsystems import index_of

        assert index_of(dec.zeros_lower) == n
        assert index_of(dec.zeros_upper) == n
        # strict interlacing of the zero abscissae
        merged = sorted(
            [(z[0], "l") for z in dec.zeros_lower.zeros]
            + [(z[0], "u") for z in dec.zeros_upper.zeros]
        )
        sides = [s for _, s in merged]
        assert all(sides[i] != sides[i + 1] for i in range(len(sides) - 1))
        gaps = np.diff([p for p, _ in merged])
        assert np.all(gaps > 1e-8 * 1.5)


def test_pos_ab_uniqueness_two_inits(rng):
    for trial in range(4):
        n = int(rng.integers(2, 7))
        fam = monomial_family(list(range(n + 1)), interval(0.0, 1.0))
        f = random_strictly_positive(fam, rng)
        d1 = decompose_pos_ab(f, init="chebyshev")
        d2 = decompose_pos_ab(f, init="equispaced")
        z1 = [z[0] for z in d1.zeros_lower.zeros]
        z2 = [z[0] for z in d2.zeros_lower.zeros]
        assert np.allclose(z1, z2, atol=1e-6)


def test_nonneg_ab_shared_zero_worked_example():
    # f = x^2 (x^2 + 1) over monomials 0..4 on [0, 1]:
    # f_* = c x^2 (x - x1)^2 with x1 = sqrt(2) - 1, f^* = (c - 1) x^3 (1 - x)
    fam = monomial_family([0, 1, 2, 3, 4], interval(0, 1))
    f = SparsePoly((0.0, 0.0, 1.0, 0.0, 1.0), fam)
    dec = decompose_nonneg_ab(f)
    check_decomposition(dec, f)
    x1 = math.sqrt(2) - 1
    zl = {round(z[0], 7): z[1] for z in dec.zeros_lower.zeros}
    assert any(abs(k - x1) < 1e-7 for k in zl)
    assert any(abs(k - 0.0) < 1e-9 and m == 2 for k, m in zl.items())
    c = 3 + 2 * math.sqrt(2)  # 1/x1^2
    expected_upper = (c - 1) * np.array([0.0, 0.0, 0.0, 1.0, -1.0])
    assert np.allclose(dec.f_upper.a, expected_upper, atol=1e-7)


def test_nonneg_ab_strictly_positive_delegates():
    fam = monomial_family([0, 1, 2], interval(-1, 1))
    f = SparsePoly((1.0, 0.0, 1.0), fam)
    dec = decompose_nonneg_ab(f)
    assert np.allclose(dec.f_lower.a, [0, 0, 2], atol=1e-9)


def test_nonneg_ab_too_many_zeros():
    fam = monomial_family([0, 1, 2], interval(-1, 1))
    f = SparsePoly((0.25, -1.0, 1.0), fam)  # (x-0.5)^2: r = 2 = n
    with pytest.raises(TooManyZeros):
        decompose_nonneg_ab(f)


def test_nonneg_ab_r_equals_n_minus_1():
    # f = (x-0.5)^2 over cubics: r = 2, n = 3, single remaining index-1 zero
    fam = monomial_family([0, 1, 2, 3], interval(0, 1))
    f = SparsePoly((0.25, -1.0, 1.0, 0.0), fam)
    dec = decompose_nonneg_ab(f)
    check_decomposition(dec, f)
    # lower part holds the endpoint-a zero, upper part the endpoint-b zero
    assert any(abs(z[0] - 0.0) < 1e-9 for z in dec.zeros_lower.zeros)
    assert any(abs(z[0] - 1.0) < 1e-9 for z in dec.zeros_upper.zeros)


def test_halfline_quadratic_hand_computed():
    fam = monomial_family([0, 1, 2], halfline(0.0))
    f = SparsePoly((2.0, -2.0, 1.0), fam)
    dec = decompose_halfline(f)
    x1 = dec.zeros_lower.zeros[0][0]
    assert abs(x1 - math.sqrt(2)) < 1e-8
    assert np.allclose(dec.f_upper.a, [0.0, 2 * math.sqrt(2) - 2, 0.0], atol=1e-8)
    assert dec.f_lower.a[-1] == f.a[-1]  # top coefficient inherited exactly


def test_halfline_linear():
    fam = monomial_family([0, 1], halfline(0.0))
    dec = decompose_halfline(SparsePoly((1.0, 1.0), fam))
    assert np.allclose(dec.f_lower.a, [0.0, 1.0], atol=1e-12)
    assert np.allclose(dec.f_upper.a, [1.0, 0.0], atol=1e-12)


def test_halfline_constant():
    fam = monomial_family([0], halfline(0.0))
    dec = decompose_halfline(SparsePoly((1.0,), fam))
    assert dec.f_lower.a[0] == 1.0 and dec.f_upper.a[0] == 0.0


def test_halfline_factor_out_when_f0_zero():
    # f = x^2 + x^3 = x^2 (1 + x): factor out x^2, decompose 1 + x
    fam = monomial_family([0, 1, 2, 3], halfline(0.0))
    f = SparsePoly((0.0, 0.0, 1.0, 1.0), fam)
    dec = decompose_halfline(f, mode="nonneg")
    assert "factor_out" in dec.solver_path
    assert np.allclose(dec.f_lower.a, [0, 0, 0, 1], atol=1e-10)
    assert np.allclose(dec.f_upper.a, [0, 0, 1, 0], atol=1e-10)


def test_halfline_sparse_power_family(rng):
    fam = power_family([0, 0.5, 2, 3.5], halfline(0.0))
    f = random_strictly_positive(fam, rng, grid=2001)
    dec = decompose_halfline(f)
    xs = np.concatenate([np.linspace(0, 20, 3000), np.geomspace(20, 1e5, 200)])
    scale = np.abs(f(np.linspace(0, 10, 500))).max()
    assert dec.f_lower(xs).min() >= -1e-9 * scale
    assert dec.f_upper(xs).min() >= -1e-9 * scale
    assert abs(dec.f_lower.a[-1] - f.a[-1]) <= 1e-12 * abs(f.a[-1])


def test_realline_parabola():
    fam = monomial_family([0, 1, 2], real_line())
    dec = decompose_realline(SparsePoly((1.0, 0.0, 1.0), fam))
    assert abs(dec.zeros_lower.zeros[0][0]) < 1e-8  # x1 = 0
    assert abs(dec.f_upper.a[0] - 1.0) < 1e-8  # b = 1
    assert np.allclose(dec.f_lower.a, [0, 0, 1], atol=1e-8)


def test_realline_nonneg_with_shared_zero():
    # (x^2 + 1)(x - 1)^2: z = 1 (mult 2), then a = 1, x1 = 0, b = 1
    fam = monomial_family([0, 1, 2, 3, 4], real_line())
    co = np.convolve([1.0, -2.0, 1.0], [1.0, 0.0, 1.0])[::-1]
    f = SparsePoly(tuple(np.convolve(np.convolve([-1.0, 1.0], [-1.0, 1.0]), [1.0, 0.0, 1.0])), fam)
    dec = decompose_realline(f, mode="nonneg")
    zl = {round(z[0], 7): z[1] for z in dec.zeros_lower.zeros}
    assert zl.get(0.0) == 2 and zl.get(1.0) == 2
    fu = dec.f_upper.a
    # f^* = (x - 1)^2
    assert np.allclose(fu, [1.0, -2.0, 1.0, 0.0, 0.0], atol=1e-8)
    # x^2 (x^2 + 1): the double zero of f_* falls on the shared zero, f_* = x^4
    dec = decompose_realline(SparsePoly((0.0, 0.0, 1.0, 0.0, 1.0), fam), mode="nonneg")
    assert [(round(p, 12), m) for p, m, _ in dec.zeros_lower.zeros] == [(0.0, 4)]
    assert np.allclose(dec.f_upper.a, [0.0, 0.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_tangency_point_without_a_pinned_solution_is_inadmissible():
    # x^2 (x^2 + 1) on R with its double zero at 0 shared: a double zero of
    # f_* placed on it makes the node rows singular, so P = 0 and h.P = 0.
    # The point gets an infinite residual and a Jacobian that raises, with
    # no RuntimeWarning (c = h.f / h.P would be inf and d = f - c P NaN)
    fam = monomial_family([0, 1, 2, 3, 4], real_line())
    f = np.array([0.0, 0.0, 1.0, 0.0, 1.0])
    solver = _TangencySolver(fam, f, ((0.0, 2),), 2, -math.inf, None, "leading", np.linspace(-2, 2, 2001))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        R, jac = solver.system(np.array([0.0]), f)
        assert len(R) and np.all(R == np.inf)
        with pytest.raises(np.linalg.LinAlgError):
            jac()
        # Newton does not start there, and converges from elsewhere
        assert solver.newton(np.array([0.0]), f, CONVERGED_TOL)[1:] == (False, 0, math.inf)
        z, ok, _, _ = solver.newton(np.array([0.5]), f, CONVERGED_TOL)
        assert ok and z[0] != 0.0


def test_newton_line_search_never_steps_onto_an_inadmissible_point():
    # R = z - 1 with no solution at z = 1 itself: each full Newton step lands
    # there and is halved, so no iterate is 1
    visited = []

    def system(z):
        visited.append(float(z[0]))
        if z[0] == 1.0:
            return np.array([np.inf]), _inadmissible
        return z - 1.0, lambda: np.eye(1)

    z, ok, steps, nR = _newton(system, np.zeros(1), 1e-3, 20, lambda z: True)
    assert ok and 0 < nR < 1e-3 and z[0] != 1.0
    assert 1.0 in visited and steps > 1


def test_realline_constant():
    fam = monomial_family([0], real_line())
    dec = decompose_realline(SparsePoly((2.5,), fam))
    assert dec.f_lower.a[0] == 2.5 and dec.f_upper.a[0] == 0.0


def test_realline_odd_degree_rejected():
    fam = monomial_family([0, 1], real_line())
    with pytest.raises(OddDegree):
        decompose_realline(SparsePoly((1.0, 1.0), fam))


def _agrees_with_oracle(dec, pd):
    """Criterion 7's zero agreement, and each part equal to the oracle's."""
    ld = lukacs_decompose(pd, real_line())
    got = [z[0] for z in dec.zeros_lower.zeros + dec.zeros_upper.zeros]
    for z in list(ld.xs) + list(ld.ys) + [z for z, _ in ld.zfactors]:
        assert min(abs(z - k) for k in got) <= 1e-7
    for part, ref in ((dec.f_lower.a, ld.f_lower), (dec.f_upper.a, ld.f_upper)):
        want = np.zeros(len(pd))
        want[: len(ref)] = ref
        assert np.max(np.abs(part - want)) <= 1e-7 * max(np.max(np.abs(pd)), np.max(np.abs(want)))


def test_realline_small_top_coefficient():
    # 1 + eps x^8: the roots lie at |x| = eps^(-1/8), far outside [-1, 1]
    fam = monomial_family(list(range(9)), real_line())
    pd = np.array([1.0, 0, 0, 0, 0, 0, 0, 0, 1e-8])
    dec = decompose_realline(SparsePoly(tuple(pd), fam))
    assert dec.converged
    _agrees_with_oracle(dec, pd)
    # at eps = 1e-20, x -> 10^1.5 x maps the eps = 1e-8 decomposition onto it
    f = SparsePoly((1.0, 0, 0, 0, 0, 0, 0, 0, 1e-20), fam)
    tiny = decompose_realline(f)
    assert tiny.converged
    check_decomposition(tiny, f)
    for small, big in ((dec.zeros_lower, tiny.zeros_lower), (dec.zeros_upper, tiny.zeros_upper)):
        assert np.allclose([z[0] * 10**1.5 for z in small.zeros], [z[0] for z in big.zeros],
                           rtol=1e-9, atol=1e-9)
    xs = np.linspace(-2000, 2000, 40001)
    assert min(tiny.f_lower(xs).min(), tiny.f_upper(xs).min()) >= -1e-12  # f >= 1
    sides = [s for _, s in sorted([(z[0], "l") for z in tiny.zeros_lower.zeros]
                                  + [(z[0], "u") for z in tiny.zeros_upper.zeros])]
    assert sides == ["l", "u"] * 3 + ["l"]


@pytest.mark.parametrize("dom,eps", [
    pytest.param(real_line(), 1e-20, id="realline"),
    pytest.param(halfline(0.0), 1e-20, id="halfline"),
    pytest.param(real_line(), 1e-26, id="realline-1e-26"),
    pytest.param(halfline(0.0), 1e-24, id="halfline-1e-24"),
])
def test_lukacs_keeps_small_leading_coefficient(dom, eps):
    # 1 + eps x^8 = 1 + 1e-8 (x / c)^8 with c = (1e-8 / eps)^(1/8), so the
    # zeros of its parts are the 1e-8 ones times c; dropping the top
    # coefficient as noise would give the constant 1's decomposition, with
    # no zeros and error eps.  So must the Hermite-Biehler factors keep
    # their degree: on R at eps = 1e-26 the top coefficient of the square's
    # factor is 1e-13 of its largest
    pd = np.array([1.0, 0, 0, 0, 0, 0, 0, 0, eps])
    small = lukacs_decompose([1.0, 0, 0, 0, 0, 0, 0, 0, 1e-8], dom)
    tiny = lukacs_decompose(pd, dom)
    assert tiny.alpha == pytest.approx(eps, rel=1e-12)
    assert tiny.reconstruction_error <= 1e-14
    assert len(tiny.xs) == 4
    for near, far in ((small.xs, tiny.xs), (small.ys, tiny.ys)):
        assert len(near) == len(far) > 0
        assert np.allclose(np.array(near) * (1e-8 / eps) ** 0.125, far, rtol=1e-9, atol=1e-9)
    if dom.kind == "real_line":  # and the tangency solver agrees with it
        fam = monomial_family(list(range(9)), dom)
        _agrees_with_oracle(decompose_realline(SparsePoly(tuple(pd), fam)), pd)


def test_realline_degree_8_draws_agree_with_oracle():
    # first a draw with roots -217 +- 52i and six more within 1.2 of 0: max |f|
    # on the root window is 2e16 while f is near 10 at the inner roots, and the
    # Chebyshev start stalls at 1e-12 of that scale with f^* down to -108 f.
    # Then a batch of criterion 7's degree-8 draws: with its own tangency
    # system and four fixed-width starts, the real line used to fail two of
    # them, a NoConvergence and zeros 6e-6 off the oracle's.
    draws = [np.array([7.029573540458791, 0.5547121218996227, 1.7104128011691344,
                       9.61478770050033, 1.9472245515720474, 0.14089686041530725,
                       4.444960366290648, 0.03866765562102626, 8.897307191568743e-05])]
    rng = np.random.default_rng(5)
    while len(draws) < 13:
        pd = random_nonneg_dense(8, real_line(), rng)
        if pd[-1] > 0:
            draws.append(pd)
    for pd in draws:
        f = SparsePoly(tuple(pd), monomial_family(list(range(9)), real_line()))
        dec = decompose_realline(f)
        check_decomposition(dec, f)
        _agrees_with_oracle(dec, pd)


def test_lukacs_fixtures():
    ld = lukacs_decompose([1.0, 0.0, 1.0], real_line())
    assert abs(ld.alpha - 1.0) < 1e-12 and abs(ld.beta - 1.0) < 1e-12
    assert np.allclose(ld.xs, [0.0], atol=1e-12) and ld.ys == ()

    ld = lukacs_decompose([0.0, 1.0], halfline(0.0))  # p = x
    assert ld.zfactors == ((0.0, 1),)
    assert ld.reconstruction_error < 1e-12

    ld = lukacs_decompose([-1.0, 2.5, -1.0], interval(0.5, 2.0))  # (x-a)(b-x)
    assert {round(z, 12) for z, _ in ld.zfactors} == {0.5, 2.0}
    assert ld.reconstruction_error < 1e-12


def test_lukacs_ab_product_identity():
    # (x-a)(b-x) = [(x-a)^2(b-x) + (x-a)(b-x)^2]/(b-a): verify by expansion
    a, b = 0.5, 2.0
    lhs = np.convolve([-a, 1.0], [b, -1.0])
    t1 = np.convolve(np.convolve([-a, 1.0], [-a, 1.0]), [b, -1.0])
    t2 = np.convolve([-a, 1.0], np.convolve([b, -1.0], [b, -1.0]))
    rhs = (t1 + t2) / (b - a)
    assert np.allclose(np.pad(lhs, (0, 1)), rhs, atol=1e-14)


def test_lukacs_rejects_negative():
    with pytest.raises(NegativeSomewhere):
        lukacs_decompose([-1.0, 0.0, 1.0], interval(0, 0.5))  # x^2 - 1 < 0 there


def test_lukacs_random_reconstruction(rng):
    for trial in range(12):
        deg = int(rng.integers(2, 9))
        kind = trial % 3
        if kind == 0:
            dom = interval(-0.5, 1.5)
        elif kind == 1:
            dom = halfline(0.0)
        else:
            dom = real_line()
            deg += deg % 2
        pd = random_nonneg_dense(deg, dom, rng)
        if dom.kind != "closed_interval" and pd[-1] <= 0:
            continue
        ld = lukacs_decompose(pd, dom)
        assert ld.reconstruction_error <= 1e-9
        assert ld.alpha >= 0 and ld.beta >= 0


def test_decomposition_json():
    fam = monomial_family([0, 1, 2], interval(-1, 1))
    dec = decompose_pos_ab(SparsePoly((1.0, 0.0, 1.0), fam))
    d = dec.to_dict()
    assert d["converged"] is True and "f_lower" in d
    assert d["touch_residual"] == dec.touch_residual < CONVERGED_TOL


# -- the Newton driver and its analytic Jacobian ---------------------------------


def test_newton_stall_above_tol_is_not_converged():
    # (z - 1)^2 + floor bottoms out at floor, which lies between tol and 100 tol:
    # the line search stalls there, and a stall is never converged
    tol = 1e-10
    floor = 10 * tol

    def system(z):
        return np.array([(z[0] - 1) ** 2 + floor]), lambda: np.array([[2 * (z[0] - 1)]])

    z, ok, _, res = _newton(system, np.array([3.0]), tol, 200, lambda z: True)
    assert not ok
    assert tol < res < 100 * tol


def test_newton_runs_past_tol_to_the_rounding_floor():
    def system(z):
        return np.array([z[0] ** 2 - 2]), lambda: np.array([[2 * z[0]]])

    z, ok, _, res = _newton(system, np.array([3.0]), 1e-3, 40, lambda z: True)
    assert ok and res <= 4.5e-16
    assert abs(z[0] - math.sqrt(2)) <= 4.5e-16


def _central_difference(system, z, h):
    cols = []
    for e in np.eye(len(z)):
        cols.append((system(z + h * e)[0] - system(z - h * e)[0]) / (2 * h))
    return np.column_stack(cols)


def _solved_tangency(family, f, shared, n_eff, hi, pin, grid):
    solver = _TangencySolver(family, np.asarray(f.a), shared, n_eff, family.domain.inf, hi, pin, grid)
    xs, ys, _, info = solver.solve()
    assert info["converged"]
    return solver, np.concatenate([xs, ys])


def _tangency_cases(rng):
    ab = interval(0.2, 1.7)
    ab_grid = np.linspace(0.2, 1.7, 2000)
    for n in (4, 5):  # endpoint pin, even and odd n
        fam = monomial_family(list(range(n + 1)), ab)
        yield f"ab:{n}", _solved_tangency(fam, random_strictly_positive(fam, rng), (), n, 1.7,
                                          "endpoint", ab_grid)
    # leading pin, odd and even n
    for params, co in (((0, 0.5, 2, 3.5), (2.0, -1.8, 1.0, 0.3)),
                       ((0, 1, 2, 3, 4), np.convolve([2.0, -2.0, 1.0], [3.0, -3.0, 1.0]))):
        fam = power_family(list(params), halfline(0.0))
        f = SparsePoly(tuple(co), fam)
        n = fam.order
        hl_grid = np.linspace(0.0, _solve_span(f, halfline_xmax(fam)), 2000)
        yield f"halfline:{n}", _solved_tangency(fam, f, (), n, None, "leading", hl_grid)
    # nonneg on [0, 1] with shared zeros: an interior double zero at 0.4
    # (n_eff = 3), and a double zero at the endpoint 0 (n_eff = 2, k_lo = 2)
    fam = monomial_family(list(range(6)), interval(0, 1))
    co = np.convolve([0.16, -0.8, 1.0], [1.0, 0.5, -0.3, 0.8])
    yield "shared:interior", _solved_tangency(fam, SparsePoly(tuple(co), fam), ((0.4, 2),), 3, 1.0,
                                              "endpoint", np.linspace(0, 1, 2000))
    fam = monomial_family(list(range(5)), interval(0, 1))
    f = SparsePoly((0.0, 0.0, 1.0, 0.0, 1.0), fam)
    yield "shared:endpoint", _solved_tangency(fam, f, ((0.0, 2),), 2, 1.0, "endpoint",
                                              np.linspace(0, 1, 2000))
    # the real line: leading pin and the x^(n-1) coefficient row, degrees 2-6,
    # and a double zero at 0.5 shared by both parts (n_eff = 4)
    for co in ([1.0, 0.0, 1.0],
               np.convolve([1.0, -0.5, 2.0], [3.0, 1.0, 1.0]),
               np.convolve(np.convolve([1.0, -0.5, 2.0], [3.0, 1.0, 1.0]), [0.7, 0.2, 1.5]),
               np.convolve(np.convolve([0.25, -1.0, 1.0], [2.0, -1.0, 1.0]), [1.5, 0.5, 1.0])):
        fam = monomial_family(list(range(len(co))), real_line())
        f = SparsePoly(tuple(co), fam)
        shared = ((0.5, 2),) if abs(f(0.5)) < 1e-12 else ()
        n_eff = fam.order - sum(m for _, m in shared)
        yield f"realline:{fam.order}:{len(shared)}", _solved_tangency(
            fam, f, shared, n_eff, None, "leading", np.linspace(*_root_window(f), 2001))


def _off_solution(z, step):
    """z moved off the solution, where d'(y) no longer vanishes at the touch points."""
    return z + step * np.cos(np.arange(len(z)) + 1.0)


def _interlaced_numpy(first, second, lo, hi, eps) -> bool:
    seq = np.empty(len(first) + len(second))
    seq[0::2] = np.sort(first)
    seq[1::2] = np.sort(second)
    return bool(np.all(np.diff(np.concatenate([[lo], seq, [hi]])) > eps))


# multiples of 1/4 make ties and gaps of exactly eps = 1/4 exact in floats
_POINTS = st.one_of(
    st.sampled_from([k / 4 for k in range(-8, 9)] + [-0.0, math.inf, -math.inf, math.nan]),
    st.floats(-3, 3),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 4).flatmap(
        lambda m: st.tuples(
            st.lists(_POINTS, min_size=m, max_size=m),
            st.lists(_POINTS, min_size=max(m - 1, 0), max_size=m),
        )
    ),
    st.sampled_from([-math.inf, -2.0, -0.0, 0.0]),
    st.sampled_from([math.inf, 2.0, 0.0]),
    st.sampled_from([0.25, 0.0, 1e-13]),
)
def test_interlaced_matches_the_numpy_version(pair, lo, hi, eps):
    first, second = np.array(pair[0], dtype=float), np.array(pair[1], dtype=float)
    with np.errstate(invalid="ignore"):
        expect = _interlaced_numpy(first, second, lo, hi, eps)
    assert _interlaced(first, second, lo, hi, eps) is expect


def test_tangency_jacobian_matches_central_differences(rng):
    for label, (solver, z) in _tangency_cases(rng):
        def system(zz):
            return solver.system(zz, solver.f)

        off = _off_solution(z, 1e-3 * solver.width)
        assert solver.phase_ok(off)
        for at in (z, off):
            J = system(at)[1]()
            Jfd = _central_difference(system, at, 1e-6 * solver.width)
            err = np.max(np.abs(J - Jfd)) / np.max(np.abs(J))
            assert err <= 1e-6, (label, err)


# Criterion-7-style instances of degree 2-4 (seed 7) that Newton solves from the
# direct start; ab 8 and half-line 2-5, 8 and 10 need continuation.
DIRECT_WINS = {"ab": [0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11], "halfline": [0, 1, 6, 7, 9, 11]}


def test_direct_wins_stay_direct_at_the_rounding_floor():
    rng = np.random.default_rng(7)
    for kind in ("ab", "halfline"):
        dom = interval(0.2, 1.7) if kind == "ab" else halfline(0.0)
        done = 0
        while done < 12:
            deg = int(rng.integers(2, 5))
            pd = random_nonneg_dense(deg, dom, rng)
            if kind == "halfline" and (pd[-1] <= 0 or pd[0] <= 0):
                continue
            f = SparsePoly(tuple(pd), monomial_family(list(range(len(pd))), dom))
            if done in DIRECT_WINS[kind]:
                dec = decompose_pos_ab(f) if kind == "ab" else decompose_halfline(f, mode="nonneg")
                assert dec.solver_path.startswith("newton:direct"), (kind, done, dec.solver_path)
                assert dec.touch_residual <= 1e-13, (kind, done, dec.touch_residual)
            done += 1


def test_continuation_reaches_degree_7_in_few_newton_solves():
    # criterion 7's [a, b] draws 0, 2 and 3 (degree 7): their parts' rounding
    # floor lies near 1e-11, so intermediate steps held to that level fail,
    # halve the step and take over 100 Newton solves (draw 3 never converges)
    rng = np.random.default_rng(73)
    dom = interval(0.2, 1.7)
    for draw in range(4):
        deg = int(rng.integers(2, 9))
        pd = random_nonneg_dense(deg, dom, rng)
        if draw == 1:
            continue
        assert deg == 7
        fam = monomial_family(list(range(len(pd))), dom)
        solver = _TangencySolver(fam, pd, (), fam.order, 0.2, 1.7, "endpoint",
                                 np.linspace(0.2, 1.7, POS_GRID))
        calls, newton = [0], solver.newton

        def counted(*args, **kw):
            calls[0] += 1
            return newton(*args, **kw)

        solver.newton = counted
        z, res = solver.continuation(solver.chebyshev_init(), 100 * CONVERGED_TOL)
        assert calls[0] <= 10 and res < CONVERGED_TOL and solver._valid(z), (draw, calls[0], res)
