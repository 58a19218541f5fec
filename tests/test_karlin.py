import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsystems import (
    FamilySpec,
    SparsePoly,
    decompose_halfline,
    decompose_nonneg_ab,
    decompose_pos_ab,
    decompose_realline,
    exponential_family,
    halfline,
    interval,
    lukacs_decompose,
    monomial_family,
    power_family,
    real_line,
)
from tsystems.errors import (
    InvariantViolation,
    LeadingCoefficientNonpositive,
    NegativeLeading,
    NoConvergence,
    NegativeSomewhere,
    NotPositive,
    OddDegree,
    OddInteriorMultiplicity,
    TooManyZeros,
    ValueAtZeroNonpositive,
)
from tsystems import karlin
from tsystems.colloc import node_points, node_rows, null_vector, null_vector_tangent
from tsystems.family import halfline_xmax
from tsystems.karlin import (
    CONVERGED_TOL,
    DIRECT_CRAWL,
    POS_GRID,
    _interlaced,
    _newton,
    _root_window,
    _solve_span,
    _inadmissible,
    _TangencySolver,
)
from tsystems.zeros import NON_NODAL

from conftest import perfbench_workloads, random_nonneg_dense, random_strictly_positive


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


def test_endpoint_zero_at_zero_is_nodal():
    # (x - a)^2 (1 + x^2) on [a, 1]: both parts keep the double zero at the
    # end a, which is nodal by convention, a = 0 as much as a = 0.1
    for a in (0.0, 0.1):
        fam = monomial_family([0, 1, 2, 3, 4], interval(a, 1))
        f = SparsePoly(tuple(np.convolve([a * a, -2 * a, 1.0], [1.0, 0.0, 1.0])), fam)
        dec = decompose_nonneg_ab(f)
        for cfg in (dec.zeros_lower, dec.zeros_upper):
            assert cfg.zeros[0][0] == a and cfg.zeros[0][2] == "nodal", (a, cfg.zeros)


def test_halfline_nonneg_simple_zeros_on_the_count_grid():
    # (x - 1)(x - 2)(x + 3): its simple zeros 1 and 2 lie on count_zeros'
    # grid, where f reads exactly 0 with no sign change beside it
    fam = power_family([0, 1, 2, 3], halfline(0.0))
    with pytest.raises(OddInteriorMultiplicity):
        decompose_halfline(SparsePoly((6.0, -7.0, 0.0, 1.0), fam), mode="nonneg")


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
    for mode in ("positive", "nonneg"):  # no zeros: none too many for n = 0
        dec = decompose_halfline(SparsePoly((1.0,), fam), mode=mode)
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
    solver = _TangencySolver(fam, f, ((0.0, 2),), np.linspace(-2, 2, 2001))
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


@pytest.mark.parametrize("deg", [3, 5, 7])
@pytest.mark.parametrize("shared_zero", [None, 0.9], ids=["positive", "zero_at_0.9"])
def test_lukacs_interval_odd_degree(deg, shared_zero):
    # p = (x - a) q^2 + (b - x) r^2 on [0.2, 1.7], times (x - 0.9)^2 where a
    # zero is shared: the odd branch of the interval oracle rebuilds p from
    # two nonnegative parts whose double zeros interlace, y first, and on a
    # positive p it agrees with the tangency solver
    a, b = 0.2, 1.7
    rng = np.random.default_rng(deg)
    m = (deg - 1) // 2 - (shared_zero is not None)
    q, r = rng.standard_normal(m + 1), rng.standard_normal(m + 1)
    pd = np.convolve([-a, 1.0], np.convolve(q, q)) + np.convolve([b, -1.0], np.convolve(r, r))
    if shared_zero is not None:
        pd = np.convolve(pd, [shared_zero**2, -2 * shared_zero, 1.0])
    ld = lukacs_decompose(pd, interval(a, b))
    assert ld.reconstruction_error <= 1e-11
    xs = np.linspace(a, b, 4001)
    scale = float(np.max(np.abs(np.polyval(pd[::-1], xs))))
    for part in (ld.f_lower, ld.f_upper):
        assert np.polyval(np.array(part)[::-1], xs).min() >= -1e-12 * scale
    merged = sorted([(x, "x") for x in ld.xs] + [(y, "y") for y in ld.ys])
    assert [kind for _, kind in merged] == ["y", "x"] * (len(merged) // 2)
    if shared_zero is not None:
        assert [(round(z, 9), k) for z, k in ld.zfactors] == [(shared_zero, 2)]
        return
    dec = decompose_pos_ab(SparsePoly(tuple(pd), monomial_family(list(range(deg + 1)), interval(a, b))))
    got = [z[0] for z in dec.zeros_lower.zeros + dec.zeros_upper.zeros]
    for z in list(ld.xs) + list(ld.ys):
        assert min(abs(z - k) for k in got) <= 1e-7
    for part, ref in ((dec.f_lower.a, ld.f_lower), (dec.f_upper.a, ld.f_upper)):
        assert np.max(np.abs(part - np.array(ref))) <= 1e-7 * np.max(np.abs(pd))


_HL = halfline(0.0)
_R = real_line()


@pytest.mark.parametrize("decompose,fam,coeffs,kw,error", [
    (decompose_pos_ab, monomial_family([0, 1, 2], _HL), (1.0, 0.0, 1.0), {}, InvariantViolation),
    (decompose_nonneg_ab, monomial_family([0, 1, 2], _R), (1.0, 0.0, 1.0), {}, InvariantViolation),
    # x - 1/2 on [0, 1] over cubics: one zero, r < n, but odd and interior
    (decompose_nonneg_ab, monomial_family([0, 1, 2, 3], interval(0, 1)), (-0.5, 1.0, 0.0, 0.0), {},
     OddInteriorMultiplicity),
    (decompose_halfline, exponential_family([-1.0, 0.0], _HL), (1.0, 1.0), {}, InvariantViolation),
    (decompose_halfline, power_family([0, 1, 2], halfline(1.0)), (1.0, 0.0, 1.0), {},
     InvariantViolation),
    # power_family refuses alpha_0 != 0 with 0 in the domain; FamilySpec does not
    (decompose_halfline, FamilySpec("power", (0.5, 1.0, 2.0), _HL), (1.0, 0.0, 1.0), {},
     InvariantViolation),
    (decompose_halfline, power_family([0, 1, 2], _HL), (1.0, 0.0, -1.0), {},
     LeadingCoefficientNonpositive),
    (decompose_halfline, power_family([0, 1, 2], _HL), (1.0, -3.0, 1.0), {}, NotPositive),
    (decompose_halfline, power_family([0, 1, 2], _HL), (-1.0, 0.0, 1.0), {"mode": "nonneg"},
     ValueAtZeroNonpositive),
    (decompose_halfline, power_family([0, 1, 2], _HL), (1.0, -2.0, 1.0), {"mode": "nonneg"},
     TooManyZeros),
    # (x - 1.23)(x - 2.71)(x + 3): two simple zeros in (0, inf), r < n
    (decompose_halfline, power_family([0, 1, 2, 3], _HL),
     tuple(np.convolve(np.convolve([-1.23, 1.0], [-2.71, 1.0]), [3.0, 1.0])), {"mode": "nonneg"},
     OddInteriorMultiplicity),
    # f(0) = 0 and the first nonzero coefficient, of x, is negative
    (decompose_halfline, power_family([0, 1, 2], _HL), (0.0, -1.0, 1.0), {"mode": "nonneg"},
     ValueAtZeroNonpositive),
    (decompose_realline, monomial_family([0, 1, 2], interval(0, 1)), (1.0, 0.0, 1.0), {},
     InvariantViolation),
    (decompose_realline, monomial_family([0, 2], _R), (1.0, 1.0), {}, InvariantViolation),
    (decompose_realline, monomial_family([0, 1, 2], _R), (1.0, 0.0, -1.0), {}, NegativeLeading),
    # (x - 1)(x - 2)(x^2 + 1): two simple zeros on R
    (decompose_realline, monomial_family([0, 1, 2, 3, 4], _R), (2.0, -3.0, 3.0, -3.0, 1.0),
     {"mode": "nonneg"}, OddInteriorMultiplicity),
    # (x - 1)^2 (x - 2)^2: r = 4 = n shared zeros leave f^* nothing but
    # rounding, as on [a, b] and the half-line
    (decompose_realline, monomial_family([0, 1, 2, 3, 4], _R),
     tuple(np.convolve([2.0, -3.0, 1.0], [2.0, -3.0, 1.0])), {"mode": "nonneg"}, TooManyZeros),
    (decompose_realline, monomial_family([0, 1, 2], _R), (-1.0, 0.0, 1.0), {}, NotPositive),
    # both rules broken: r = 4 = n with an odd interior zero; the count is
    # checked first on every domain
    (decompose_realline, monomial_family([0, 1, 2, 3, 4], _R),
     tuple(np.convolve([-1.0, 3.0, -3.0, 1.0], [2.0, 1.0])), {"mode": "nonneg"}, TooManyZeros),
    (decompose_nonneg_ab, monomial_family([0, 1, 2, 3, 4], interval(-3, 3)),
     tuple(np.convolve([-1.0, 3.0, -3.0, 1.0], [2.0, 1.0])), {}, TooManyZeros),
    (decompose_halfline, power_family([0, 1, 2, 3, 4], _HL),
     tuple(np.convolve([-1.0, 3.0, -3.0, 1.0], [-2.0, 1.0])), {"mode": "nonneg"}, TooManyZeros),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_decomposers_reject_invalid_input(decompose, fam, coeffs, kw, error):
    with pytest.raises(error):
        decompose(SparsePoly(coeffs, fam), **kw)


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

    z, ok, steps, res = _newton(system, np.array([3.0]), 1e-3, 40, lambda z: True)
    assert ok and res <= 4.5e-16
    assert abs(z[0] - math.sqrt(2)) <= 4.5e-16
    # without the floor it stops at the first step below tol
    z, ok, early, res = _newton(system, np.array([3.0]), 1e-3, 40, lambda z: True, floor=False)
    assert ok and 1e-12 < res < 1e-3 and early < steps


def test_newton_ends_below_tol_without_halving_a_noisy_step():
    # R = z - 1 plus a 1e-12 noise that is a hash of z's bits: below tol a
    # step only reshuffles the noise, and the first full step that does not
    # lower max |R| ends the solve, converged, without halving it to zero
    tol = 1e-10
    evals = []

    def system(z):
        evals.append(float(z[0]))
        noise = 1e-12 * (zlib.crc32(z.tobytes()) / 2**31 - 1)
        return np.array([z[0] - 1 + noise]), lambda: np.eye(1)

    z, ok, steps, res = _newton(system, np.array([3.0]), tol, 40, lambda z: True)
    assert ok and res < 1e-11 and abs(z[0] - 1) < 1e-11
    # the start, each accepted step, and the one full step that failed
    assert len(evals) == steps + 2 and steps < 40


def test_newton_crawl_rule_ends_a_crawl_not_converged():
    # R = z + 1 has its root at -1, outside the admissible z > 0: every full
    # step leaves the set, and the halved step that stays inside shrinks
    # with z, so max |R| creeps down towards 1.  The iterates are where the
    # Jacobian is taken.
    def run(**kw):
        iterates = []

        def system(z):
            def jac():
                iterates.append(float(z[0]))
                return np.eye(1)

            return z + 1.0, jac

        z, ok, steps, nR = _newton(system, np.array([4.0]), 1e-10, 100, lambda z: z[0] > 0, **kw)
        return ok, steps, nR, [x + 1 for x in [*iterates[:steps], float(z[0])]]

    ok, steps, nR, rs = run(crawl=DIRECT_CRAWL)
    assert not ok and nR > 1 and steps > DIRECT_CRAWL
    # it ends at the first window of accepted steps that did not halve max |R|
    assert 2 * rs[-1] > rs[-1 - DIRECT_CRAWL]
    assert all(2 * rs[k] <= rs[k - DIRECT_CRAWL] for k in range(DIRECT_CRAWL, steps))
    ok, more, nR, _ = run()  # the default keeps crawling
    assert not ok and nR > 1 and more > steps + 10

    # from z = 1000, Newton on z^2 - 2 roughly halves z (quarters R) for ten
    # steps, more than the window, before its quadratic phase: not cut
    def square(z):
        return np.array([z[0] ** 2 - 2]), lambda: np.array([[2 * z[0]]])

    cut = _newton(square, np.array([1000.0]), 1e-10, 40, lambda z: True, crawl=DIRECT_CRAWL)
    full = _newton(square, np.array([1000.0]), 1e-10, 40, lambda z: True)
    assert cut[1] and cut[3] <= 4.5e-16 and cut[2] > 2 * DIRECT_CRAWL
    assert np.array_equal(cut[0], full[0]) and cut[1:] == full[1:]


def test_failed_direct_starts_stay_short_on_the_karlin_corpus(monkeypatch):
    # Newton iterations of direct starts that fail, over the benchmark's
    # fixed karlin corpus: 523 with no cut, 206 when a start ended at a step
    # below 2^-12, 109 with the DIRECT_CRAWL rule.  No decomposition runs two
    # direct starts from the same point.
    wl = perfbench_workloads().WORKLOADS["karlin"]
    runs = []
    newton = _TangencySolver.newton

    def counted(self, z, fc, tol, maxit=40, crawl=0, floor=True):
        out = newton(self, z, fc, tol, maxit, crawl, floor)
        if crawl:
            runs.append((np.array(z), self.width, out[2]))
        return out

    monkeypatch.setattr(_TangencySolver, "newton", counted)
    failed = 0
    for inst in wl.corpus():
        runs.clear()
        dec = wl.call(inst)
        starts = [z for z, _, _ in runs]
        for i, (z, width, _) in enumerate(runs):
            assert all(np.max(np.abs(z - zt)) > 1e-12 * width for zt in starts[:i]), inst.stratum
        won = dec.iterations if dec.solver_path.startswith("newton:direct") else 0
        failed += sum(it for _, _, it in runs) - won
    assert failed <= 138, failed


def test_tangency_system_evaluations_over_the_karlin_corpus(monkeypatch):
    # one pass over the benchmark's karlin corpus evaluates the tangency
    # system 1,217 times when Newton halves its steps at the rounding floor,
    # 958 times when the first full step there that does not lower max |R|
    # ends the solve
    wl = perfbench_workloads().WORKLOADS["karlin"]
    calls = [0]
    system = _TangencySolver.system

    def counted(self, z, fc):
        calls[0] += 1
        return system(self, z, fc)

    monkeypatch.setattr(_TangencySolver, "system", counted)
    for inst in wl.corpus():
        wl.call(inst)
    assert calls[0] <= 1050, calls[0]


# Draws of a fresh census that raise NoConvergence: (rng seed, draw index)
_FRESH_UNCONVERGED = {(5, 41), (5, 79), (5, 104), (11, 83)}
# Draws of the same census that the direct starts do not settle, by rng seed
_FRESH_CONTINUED = {
    5: {2, 3, 4, 17, 18, 19, 20, 23, 25, 35, 37, 39, 59, 60, 62, 64, 66, 72, 80, 81, 82, 87,
        88, 90, 93, 101, 102, 103, 108, 109, 121, 122, 123, 124, 125},
    11: {3, 9, 16, 17, 18, 19, 24, 34, 38, 39, 41, 45, 59, 60, 61, 65, 77, 79, 80, 81, 85, 90,
         93, 100, 101, 102, 109, 122, 123, 124},
}


def test_fresh_high_degree_karlin_draws_pass_the_benchmark_check():
    # all 252 draws of a fresh census (karlin_make at rng seeds 5 and 11, six
    # rounds of the corpus strata plus higher degrees) pass
    # checks.check_karlin, except the four above, which may raise
    # NoConvergence instead, and the 183 that a direct start settles stay
    # direct.  Seed 5 draw 41 (c6:8) ends its continuation unconverged with
    # f^* at -2.7e-9 of the local |f|, which the global max |f| hid: it must
    # be refused or sound.  Seed 5 draws 19 (c6:7) and 109 (c6:6) have their
    # rounding floor at 1e-10 ... 7e-10: continuation steps stopped at the
    # acceptance level 1e-8 instead of CONVERGED_TOL make them raise
    # NoConvergence.
    workloads = perfbench_workloads()
    strata = workloads.KARLIN_STRATA + ["ab:5", "ab:6", "ab:7", "halfline:4", "halfline:5", "c6:7", "c6:8"]
    direct = 0
    for seed in (5, 11):
        rng = np.random.default_rng(seed)
        draws = [workloads.karlin_make(rng, s) for _ in range(6) for s in strata]
        assert len(draws) == 126
        for i, inst in enumerate(draws):
            try:
                inst.output = workloads.karlin_call(inst)
            except NoConvergence:
                assert (seed, i) in _FRESH_UNCONVERGED, (seed, i, inst.stratum)
                continue
            assert workloads.karlin_check(inst) is None, (seed, i, inst.stratum)
            if i not in _FRESH_CONTINUED[seed]:
                assert inst.output.solver_path.startswith("newton:direct"), (seed, i, inst.stratum)
                direct += 1
    assert direct == 183


def _central_difference(system, z, h):
    cols = []
    for e in np.eye(len(z)):
        cols.append((system(z + h * e)[0] - system(z - h * e)[0]) / (2 * h))
    return np.column_stack(cols)


def _solved_tangency(family, f, shared, grid):
    """The solver and its solution z: the free double zeros of f_*, then the
    touch points of f^*, read off the returned decomposition's zero sets."""
    solver = _TangencySolver(family, np.asarray(f.a), shared, grid)
    dec = solver.solve()
    assert dec.converged
    fixed = [p for p, _ in shared]
    xs, ys = ([p for p, _, kind in zc.zeros if kind == NON_NODAL and p not in fixed]
              for zc in (dec.zeros_lower, dec.zeros_upper))
    assert len(xs) == solver.m and len(ys) == len(solver.ys_for(np.array(xs)))
    return solver, np.array(xs + ys)


def _tangency_cases(rng):
    ab = interval(0.2, 1.7)
    ab_grid = np.linspace(0.2, 1.7, 2000)
    for n in (4, 5):  # endpoint pin, even and odd n
        fam = monomial_family(list(range(n + 1)), ab)
        yield f"ab:{n}", _solved_tangency(fam, random_strictly_positive(fam, rng), (), ab_grid)
    # leading pin, odd and even n
    for params, co in (((0, 0.5, 2, 3.5), (2.0, -1.8, 1.0, 0.3)),
                       ((0, 1, 2, 3, 4), np.convolve([2.0, -2.0, 1.0], [3.0, -3.0, 1.0]))):
        fam = power_family(list(params), halfline(0.0))
        f = SparsePoly(tuple(co), fam)
        n = fam.order
        hl_grid = np.linspace(0.0, _solve_span(f, halfline_xmax(fam)), 2000)
        yield f"halfline:{n}", _solved_tangency(fam, f, (), hl_grid)
    # nonneg on [0, 1] with shared zeros: an interior double zero at 0.4
    # (n_eff = 3), and a double zero at the endpoint 0 (n_eff = 2, k_lo = 2)
    fam = monomial_family(list(range(6)), interval(0, 1))
    co = np.convolve([0.16, -0.8, 1.0], [1.0, 0.5, -0.3, 0.8])
    yield "shared:interior", _solved_tangency(fam, SparsePoly(tuple(co), fam), ((0.4, 2),),
                                              np.linspace(0, 1, 2000))
    fam = monomial_family(list(range(5)), interval(0, 1))
    f = SparsePoly((0.0, 0.0, 1.0, 0.0, 1.0), fam)
    yield "shared:endpoint", _solved_tangency(fam, f, ((0.0, 2),), np.linspace(0, 1, 2000))
    # the real line: leading pin and the x^(n-1) coefficient row, degrees 2-6,
    # and a double zero at 0.5 shared by both parts (n_eff = 4)
    for co in ([1.0, 0.0, 1.0],
               np.convolve([1.0, -0.5, 2.0], [3.0, 1.0, 1.0]),
               np.convolve(np.convolve([1.0, -0.5, 2.0], [3.0, 1.0, 1.0]), [0.7, 0.2, 1.5]),
               np.convolve(np.convolve([0.25, -1.0, 1.0], [2.0, -1.0, 1.0]), [1.5, 0.5, 1.0])):
        fam = monomial_family(list(range(len(co))), real_line())
        f = SparsePoly(tuple(co), fam)
        shared = ((0.5, 2),) if abs(f(0.5)) < 1e-12 else ()
        yield f"realline:{fam.order}:{len(shared)}", _solved_tangency(
            fam, f, shared, np.linspace(*_root_window(f), 2001))


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


def _system_by_lists(solver, z, fc):
    """The tangency system's node block B, residual R and Jacobian J, built
    as the solver once built them on every call, from Python lists of
    points and orders: the oracle of the layout the solver now keeps."""
    m = solver.m
    ox, oy = np.argsort(z[:m]), np.argsort(z[m:])
    xs, ys = z[:m][ox], z[m:][oy]
    k = len(ys)
    pts, orders = node_points(solver.lower_nodes(xs))
    nb = len(pts)
    orders = orders + [2] * m + [0] * k + [1] * k + [2] * k
    block = solver.family.eval_grid(pts + [*xs, *ys, *ys, *ys], orders)
    B, second, Y = block[:nb], block[nb : nb + m], block[nb + m :]
    P = null_vector(B)
    h = solver.pin_row
    rows = np.vstack([solver.lo_row, Y[: 2 * k]])
    c = (h @ fc) / (h @ P)
    d = fc - c * P
    R = rows @ d
    n_fixed = sum(mult for _, mult in solver.lower_fixed)
    dP = null_vector_tangent(B, P, n_fixed + 1 + 2 * np.arange(m), second)
    J = np.zeros((len(R), len(z)))
    J[:, ox] = -c * rows @ (dP - np.outer(P, (h @ dP) / (h @ P)))
    e = len(solver.lo_row) + np.arange(k)
    J[e, m + oy] = Y[k : 2 * k] @ d
    J[e + k, m + oy] = Y[2 * k :] @ d
    return B, R, J


def test_tangency_system_matches_its_list_built_oracle_bit_for_bit(rng, monkeypatch):
    # [a, b] with the end pin, with a shared interior and a shared endpoint
    # double zero, the half-line and the real line: at the solution, off it,
    # and off it with the points of each kind in reverse order, system's
    # node block is node_rows at the lower pattern's nodes, and its R and J
    # are those of the list-built oracle, bit for bit
    blocks = []
    nv = karlin.null_vector
    monkeypatch.setattr(karlin, "null_vector", lambda B: blocks.append(np.array(B)) or nv(B))
    for label, (solver, z) in _tangency_cases(rng):
        m = solver.m
        off = _off_solution(z, 1e-3 * solver.width)
        for at in (z, off, np.concatenate([off[:m][::-1], off[m:][::-1]])):
            assert solver.phase_ok(at), label
            R, jac = solver.system(at, solver.f)
            B, R_lists, J_lists = _system_by_lists(solver, at, solver.f)
            nodes = node_rows(solver.family, solver.lower_nodes(np.sort(at[:m])))
            assert blocks[-1].tobytes() == nodes.tobytes() == B.tobytes(), label
            assert R.tobytes() == R_lists.tobytes(), label
            assert jac().tobytes() == J_lists.tobytes(), label


def test_accepted_f_lower_is_the_fresh_one_bit_for_bit(rng):
    # _valid and decomposition take f_* from the system evaluation at the
    # accepted z; it equals f_* recomputed from the node rows alone
    for label, (solver, z) in _tangency_cases(rng):
        z, ok, _, res = solver.newton(z, solver.f, CONVERGED_TOL)
        assert ok and z.tobytes() in solver.seen_lower, label
        assert solver._valid(z), label
        dec = solver.decomposition(z, "newton:direct", 0, res)
        P = null_vector(node_rows(solver.family, solver.lower_nodes(np.sort(z[: solver.m]))))
        fresh = (solver.pin_row @ solver.f) / (solver.pin_row @ P) * P
        assert np.array(dec.f_lower.a).tobytes() == fresh.tobytes(), label


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
        solver = _TangencySolver(fam, pd, (), np.linspace(0.2, 1.7, POS_GRID))
        calls, newton = [0], solver.newton

        def counted(*args, **kw):
            calls[0] += 1
            return newton(*args, **kw)

        solver.newton = counted
        z, res, _ = solver.continuation(solver.chebyshev_init(), 100 * CONVERGED_TOL)
        assert calls[0] <= 10 and res < CONVERGED_TOL and solver._valid(z), (draw, calls[0], res)


def test_continuation_reports_its_newton_iterations():
    # criterion 7's [a, b] draw 0 (degree 7) falls through its direct starts;
    # its iterations are every Newton step continuation took, not 0
    rng = np.random.default_rng(73)
    pd = random_nonneg_dense(int(rng.integers(2, 9)), interval(0.2, 1.7), rng)
    fam = monomial_family(list(range(len(pd))), interval(0.2, 1.7))
    solver = _TangencySolver(fam, pd, (), np.linspace(0.2, 1.7, POS_GRID))
    steps, newton = [], solver.newton

    def counted(z, fc, tol, maxit=40, crawl=0, floor=True):
        out = newton(z, fc, tol, maxit, crawl, floor)
        if not crawl:
            steps.append(out[2])
        return out

    solver.newton = counted
    dec = solver.solve()
    assert dec.solver_path == "homotopy-cheb" and dec.converged
    assert dec.iterations == sum(steps) > len(steps)

