import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter1d
from scipy.optimize import nnls as scipy_nnls

from tsystems import (
    FamilySpec,
    NodeSet,
    SparsePoly,
    custom_family,
    exponential_family,
    extremal_test_polys,
    halfline,
    hankel_check,
    interval,
    monomial_family,
    poly_from_zeros,
    power_family,
    recover_atoms,
    sparse_feasibility,
)
from tsystems.errors import NotFeasible, TooShort, TSystemError
from tsystems import extremal, moments
from tsystems.extremal import (
    _pattern_nodes,
    _pattern_value_grad,
    _pattern_values,
    _patterns_for,
    _search_window,
)
from tsystems.moments import (
    CERT_TOL,
    AtomicMeasure,
    MomentFunctional,
    _certificate_is_sound,
)

from conftest import perfbench_checks, perfbench_workloads


def bisection_eigen_oracle(H, tol=1e-12):
    """Smallest eigenvalue of a symmetric matrix by characteristic-polynomial
    bisection (Sturm-free bracket on det(H - t I))."""
    n = H.shape[0]
    lo = -np.sum(np.abs(H))
    hi = np.sum(np.abs(H))

    def charpoly_sign_changes(t):
        # count eigenvalues below t via LDL-like sign count of determinants
        count = 0
        for k in range(1, n + 1):
            d = np.linalg.det(H[:k, :k] - t * np.eye(k))
            if d < 0 if k % 2 == 1 else d > 0:
                pass
        # simpler: eigenvalue count below t = negatives of shifted matrix
        return int(np.sum(np.linalg.eigvalsh(H - t * np.eye(n)) < 0))

    # plain bisection for the minimum eigenvalue via det sign (leading minors)
    def below(t):
        return np.all(np.linalg.eigvalsh(H) >= t)

    for _ in range(200):
        mid = (lo + hi) / 2
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, abs(hi)):
            break
    return lo


def test_hankel_point_mass_at_one():
    r = hankel_check([1.0] * 5, "hausdorff")
    assert r["all_psd"]
    assert abs(r["matrices"]["H((1-X)s)"]["min_eigenvalue"]) < 1e-12


def test_hankel_stieltjes_indeterminate_moments():
    s = [math.exp((k + 1) ** 2 / 4) for k in range(5)]
    r = hankel_check(s, "stieltjes")
    assert r["all_psd"]


def test_hankel_not_a_moment_sequence():
    r = hankel_check([1.0, 0.0, -1.0], "hamburger")
    assert not r["all_psd"]
    assert r["matrices"]["H(s)"]["min_eigenvalue"] < -0.5


def test_hankel_svenco_variant():
    # moments of (delta_0 + delta_1)/2: s = (1, 1/2, 1/2, ...)
    s = [1.0, 0.5, 0.5, 0.5, 0.5]
    r = hankel_check(s, "svenco")
    assert r["all_psd"]


def test_hankel_too_short():
    with pytest.raises(TooShort):
        hankel_check([1.0], "stieltjes")


def test_hankel_matches_eigen_oracle(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n))
        s = [float(np.trace(np.linalg.matrix_power(A @ A.T, k))) for k in range(2 * n - 1)]
        r = hankel_check(s, "hamburger")
        H = np.array([[s[i + j] for j in range(n)] for i in range(n)])
        oracle = bisection_eigen_oracle(H)
        assert abs(r["matrices"]["H(s)"]["min_eigenvalue"] - oracle) < 1e-8 * max(
            1.0, abs(oracle)
        )


def test_extremal_patterns_are_nonnegative():
    fam = monomial_family([0, 1, 2, 3, 4], interval(0.2, 1.0))
    xs = np.linspace(0.2, 1.0, 500)
    p1 = extremal_test_polys(fam, "interior_doubles", (0.4, 0.8))
    p2 = extremal_test_polys(fam, "a_doubles_b", (0.6,))
    assert p1(xs).min() >= -1e-12
    assert p2(xs).min() >= -1e-12
    fam5 = monomial_family([0, 1, 2, 3, 4, 5], interval(0.2, 1.0))
    p3 = extremal_test_polys(fam5, "a_doubles", (0.4, 0.8))
    p4 = extremal_test_polys(fam5, "doubles_b", (0.4, 0.8))
    assert p3(xs).min() >= -1e-12 and p4(xs).min() >= -1e-12


def test_extremal_halfline_patterns_drop_top_member():
    fam = power_family([0, 1, 2, 3, 4], halfline(0.0))
    xs = np.linspace(0, 20, 800)
    p = extremal_test_polys(fam, "hl_upper_even", (2.0,))
    assert p.a[-1] == 0.0
    assert abs(p(0.0)) < 1e-12
    assert p(xs).min() >= -1e-10
    fam5 = power_family([0, 1, 2, 3, 4, 5], halfline(0.0))
    p2 = extremal_test_polys(fam5, "hl_lower_odd", (1.0, 3.0))
    assert abs(p2(0.0)) < 1e-12 and p2(xs).min() >= -1e-10
    p3 = extremal_test_polys(fam5, "hl_upper_odd", (1.0, 3.0))
    assert p3.a[-1] == 0.0 and p3(xs).min() >= -1e-10


def test_extremal_halfline_upper_patterns_keep_custom_evaluators():
    # the upper patterns drop the top member: for a custom family the
    # sub-family must keep the remaining evaluators
    dom = halfline(0.0)
    evs = [lambda x, k, d=d: math.perm(d, k) * x ** (d - k) if k <= d else 0.0 for d in range(3)]
    power = extremal_test_polys(power_family([0, 1, 2], dom), "hl_upper_even", [])
    custom = extremal_test_polys(custom_family(evs, dom), "hl_upper_even", [])
    assert np.allclose(power.a, [0.0, 1.0, 0.0], atol=1e-15)
    assert np.array_equal(custom.a, power.a)


def test_extremal_m0_patterns_are_basis_multiples():
    fam = monomial_family([0], interval(0, 1))
    p = extremal_test_polys(fam, "interior_doubles", ())
    assert p.a[0] > 0


def test_feasibility_forward_computed_measure():
    fam = power_family([0, 0.5, 1, 2], interval(0.1, 1.0))
    L = MomentFunctional.from_measure(fam, [(0.2, 0.3), (0.8, 0.7)])
    v = sparse_feasibility(L)
    assert v.status == "feasible"
    got = v.witness_measure.moments(fam)
    assert np.max(np.abs(got - L.s)) <= 1e-8 * np.max(np.abs(L.s))


def test_feasibility_negative_constant_direction():
    fam = monomial_family([0, 1, 2, 3], interval(0, 1))
    v = sparse_feasibility(MomentFunctional((-1.0, 0.0, 0.0, 0.0), fam))
    assert v.status == "infeasible"
    assert np.allclose(v.certificate_poly.a, [1, 0, 0, 0])


def test_feasibility_single_atom_boundary():
    fam = monomial_family([0, 1, 2, 3], interval(0, 1))
    L = MomentFunctional.from_measure(fam, [(0.5, 1.0)])
    v = sparse_feasibility(L)
    assert v.status == "feasible"
    assert len(v.witness_measure.atoms) == 1
    x, w = v.witness_measure.atoms[0]
    assert abs(x - 0.5) < 1e-7 and abs(w - 1.0) < 1e-7


def test_recover_atoms_two_point_measure():
    fam = monomial_family([0, 1, 2, 3], interval(0, 1))
    L = MomentFunctional.from_measure(fam, [(0.25, 0.5), (0.75, 0.5)])
    m = recover_atoms(L)
    assert len(m.atoms) == 2
    (x1, w1), (x2, w2) = sorted(m.atoms)
    assert abs(x1 - 0.25) < 1e-7 and abs(x2 - 0.75) < 1e-7
    assert abs(w1 - 0.5) < 1e-7 and abs(w2 - 0.5) < 1e-7


def test_recover_atoms_single_atom():
    fam = monomial_family([0, 1, 2, 3], interval(0, 1))
    m = recover_atoms(MomentFunctional.from_measure(fam, [(0.4, 1.3)]))
    assert len(m.atoms) == 1
    assert abs(m.atoms[0][0] - 0.4) < 1e-8 and abs(m.atoms[0][1] - 1.3) < 1e-8


def test_recover_atoms_zero_functional():
    fam = monomial_family([0, 1, 2], interval(0, 1))
    assert recover_atoms(MomentFunctional((0.0, 0.0, 0.0), fam)).atoms == ()


def test_recover_atoms_infeasible_raises():
    fam = monomial_family([0, 1, 2], interval(0, 1))
    with pytest.raises(NotFeasible):
        recover_atoms(MomentFunctional((-1.0, 0.5, 0.4), fam))


@st.composite
def functionals_on_and_off_the_cone(draw):
    """The moments of 1..n+1 atoms over a power, monomial or exponential
    family of order n = 2..6 on [0.1, 1.2] or [0, inf), kept (two draws in
    five) or moved off along a random direction by up to 1e-1 of its scale."""
    n = draw(st.integers(2, 6))
    variant = draw(st.sampled_from(["power", "monomial", "exponential"]))
    on_halfline = draw(st.booleans())
    dom = halfline(0.0) if on_halfline else interval(0.1, 1.2)
    lo, hi = (0.08, 2.5) if on_halfline else (0.12, 1.18)
    if variant == "monomial":
        fam = monomial_family(list(range(n + 1)), dom)
    else:
        steps = sorted(draw(st.lists(st.integers(1, 3 * n), min_size=n, max_size=n, unique=True)))
        fam = (power_family([0.0] + [0.5 * h for h in steps], dom) if variant == "power"
               else exponential_family([-0.5 * h for h in steps[::-1]] + [0.0], dom))
    k = draw(st.integers(1, n + 1))
    pos = draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k))
    s = MomentFunctional.from_measure(fam, list(zip(pos, weights))).s
    size = draw(st.sampled_from([0.0, 0.0, 1e-6, 1e-3, 1e-1]))
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=fam.size, max_size=fam.size)))
    return MomentFunctional(tuple(s + size * float(np.max(np.abs(s))) * u), fam)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(functionals_on_and_off_the_cone())
def test_grid_fit_is_a_basic_solution(L):
    # Lawson-Hanson NNLS keeps its positive columns linearly independent, so
    # the grid fit has at most n+1 support points (Caratheodory) and the
    # engine built on it needs no pruning
    w = moments._grid_fit(L.family, L.s, 2001)[2]
    assert np.count_nonzero(w > 0) <= L.family.size
    assert 1 <= len(recover_atoms(L, assume_feasible=True).atoms) <= L.family.size


def test_duality_never_both(rng):
    # feasible instances give witnesses, perturbed-out instances certificates;
    # no instance is both
    fam = power_family([0, 1, 2.5, 4], interval(0.1, 1.0))
    for _ in range(6):
        k = int(rng.integers(1, 3))
        pos = np.sort(rng.uniform(0.15, 0.95, k))
        wts = rng.uniform(0.2, 1.0, k)
        L = MomentFunctional.from_measure(fam, list(zip(pos, wts)))
        v = sparse_feasibility(L)
        assert v.status == "feasible"
        assert v.certificate_poly is None
    v = sparse_feasibility(MomentFunctional((-0.5, 0.1, 0.1, 0.1), fam))
    assert v.status == "infeasible" and v.witness_measure is None
    if v.certificate_poly is not None:
        xs = np.linspace(0.1, 1.0, 1000)
        pv = v.certificate_poly(xs)
        assert pv.min() >= -1e-10 * np.max(np.abs(pv))
        assert float(v.certificate_poly.a @ np.array([-0.5, 0.1, 0.1, 0.1])) < 0


@pytest.mark.parametrize("s, route", [
    ((1.0, 0.5, 0.25), "primal"),
    ((-1.0, 0.5, 0.25), "basis"),
    ((1.0, 0.9, 0.1), "dual"),
    # census draw 54, as in test_undecided_gap_is_the_grid_residual
    ((0.6802781527850223, 0.4512343109041686, 0.2993075697689222, 0.19853325808363484), "none"),
])
def test_verdict_serializes_its_evidence_only(s, route):
    # a verdict's dict holds what decided it and nothing computed beside it
    v = sparse_feasibility(MomentFunctional(s, monomial_family(list(range(len(s))), interval(0, 1))))
    assert v.route == route
    assert v.to_dict().keys() == {"status", "route", "witness_measure", "certificate_poly", "gap"}


def test_moment_functional_serialization():
    fam = monomial_family([0, 1], interval(0, 1))
    L = MomentFunctional((1.0, 0.5), fam)
    assert '"s"' in L.to_json()


def criterion_10_instance(index, tol=1e-8):
    """The perturbed functional of acceptance criterion 10's instance `index`,
    drawn exactly as the criterion draws it (same seed, same rejections)."""
    rng = np.random.default_rng(73)
    done = 0
    while True:
        n = int(rng.integers(2, 7))
        extra = np.sort(rng.choice(np.arange(1, 3 * n + 1), size=n, replace=False) * 0.5)
        on_halfline = done % 2 == 1
        fam = power_family([0.0] + list(extra), halfline(0.0) if on_halfline else interval(0.1, 1.2))
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
            p_hat = poly_from_zeros(fam, NodeSet.of(*nodes), check_certificate=False)
        except Exception:
            continue
        if abs(p_hat.a[0]) < 0.3:
            continue
        if done == index:
            s = np.array(L.s)
            s[0] -= 10 * float(np.max(np.abs(L.s))) * tol * math.copysign(1.0, p_hat.a[0])
            return MomentFunctional(tuple(s), fam)
        done += 1


def windowed_max(vals, K):
    """max |vals| over the K neighbours on each side (the local magnitude)."""
    padded = np.pad(np.abs(vals), K)
    return np.lib.stride_tricks.sliding_window_view(padded, 2 * K + 1).max(axis=1)


def test_criterion_10_instance_31_certificate_is_sound():
    # power (0, .5, 2.5, 4.5, 6) on [0, inf) with one atom near 1.036: a
    # certificate judged against the global max on [0, 10] (x^6 makes it
    # ~1e5) once dipped to -3e-6 next to the atom, where |p| is ~1e2
    L = criterion_10_instance(31)
    assert L.family.params == (0.0, 0.5, 2.5, 4.5, 6.0)
    v = sparse_feasibility(L, tol=1e-8)
    assert v.status != "feasible"
    if v.status == "infeasible":
        probe = np.linspace(0.0, 10.0, 2001)
        pv = v.certificate_poly(probe)
        assert np.all(pv >= -1e-10 * windowed_max(pv, 40))
        assert float(L.s @ v.certificate_poly.a) < 0


def test_certificate_negative_beyond_probe_window_is_unsound():
    # x^6 - c1 x + c0 >= 0 on the probe window [0, 10] but negative near 15:
    # two sign changes in the coefficients leave room for the two zeros
    fam = power_family([0, 1, 6], halfline(0.0))
    p = SparsePoly((5.6e7, -6 * 15.0**5, 1.0), fam)
    probes = [np.linspace(0.0, 10.0, 2001)]
    assert p(probes[0]).min() > 0 and p(15.0) < 0
    assert not _certificate_is_sound(p, probes)
    assert _certificate_is_sound(SparsePoly((1.0, 0.0, 1.0), fam), probes)


def test_small_top_exponent_halfline_window():
    # 10^(6/alpha_n) overflows for alpha_n = 0.001: the window is capped at 10^30
    fam = power_family([0.0, 0.001], halfline(0.0))
    assert _search_window(fam) == (0.0, 1e30)
    assert sparse_feasibility(MomentFunctional.from_measure(fam, [(2.0, 1.0)])).status == "feasible"
    v = sparse_feasibility(MomentFunctional((1.0, -1.0), fam))
    assert (v.status, v.route) == ("infeasible", "basis")
    assert v.to_dict()["route"] == "basis"


def perturbed_functional(fam, atom, pattern, tol=1e-8):
    """Criterion 10's construction for one atom: the moments of w delta_x,
    moved out of the cone along the pattern's extremal polynomial with its
    free double zero at the atom."""
    x, w = atom
    L = MomentFunctional.from_measure(fam, [atom])
    p_hat = extremal_test_polys(fam, pattern, (x,))
    assert abs(p_hat.a[0]) >= 0.3
    s = np.array(L.s)
    s[0] -= 10 * float(np.max(np.abs(s))) * tol * math.copysign(1.0, p_hat.a[0])
    return MomentFunctional(tuple(s), fam)


@pytest.mark.parametrize("dom", [interval(0.1, 1.2), halfline(0.0)], ids=["ab", "halfline"])
def test_dual_gradient_matches_central_difference(dom):
    # dL/dtheta from the bordered system against a central difference of
    # L(extremal_test_polys), for every pattern with free zeros
    exps = [0.0, 0.5, 1.5, 2.5, 4.0, 5.5]
    s_all = np.random.default_rng(5).uniform(0.5, 2.0, len(exps))
    for n in range(2, 6):
        fam = power_family(exps[: n + 1], dom)
        s = s_all[: n + 1]
        window = _search_window(fam)
        for pattern, m in _patterns_for(fam):
            if m == 0:
                continue
            theta = (0.1 + 1.1 * (np.arange(m) + 1) / (m + 1) if dom.kind == "closed_interval"
                     else 0.7 * (np.arange(m) + 1))
            sub, nodes = _pattern_nodes(fam, pattern, theta)
            val, grad = _pattern_value_grad(sub, nodes, m, s, window)
            assert val == pytest.approx(float(s @ extremal_test_polys(fam, pattern, theta).a), rel=1e-12)
            h = 1e-5
            fd = np.array([
                (s @ extremal_test_polys(fam, pattern, theta + h * e).a
                 - s @ extremal_test_polys(fam, pattern, theta - h * e).a) / (2 * h)
                for e in np.eye(m)
            ])
            assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd)), (n, pattern, grad, fd)


@pytest.mark.parametrize("dom", [interval(0.1, 1.2), halfline(0.0)], ids=["ab", "halfline"])
def test_batched_scan_matches_pointwise(dom):
    # the coarse scan's one eval_grid and one stacked null_vector per pattern
    # give, bit for bit, the values of _pattern_value_grad point by point:
    # for one functional and for optimize_ratio's two-row block, m = 1, 2, 3
    exps = [0.0, 0.5, 1.5, 2.5, 4.0, 5.5, 7.0]
    rng = np.random.default_rng(11)
    for n in range(2, 7):
        fam = power_family(exps[: n + 1], dom)
        lo, hi = _search_window(fam)
        for pattern, m in _patterns_for(fam):
            if m == 0:
                continue
            thetas = np.sort(rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), (20, m)), axis=1)
            for s in (rng.uniform(0.5, 2.0, n + 1), rng.uniform(0.5, 2.0, (2, n + 1))):
                vals = _pattern_values(fam, pattern, thetas, s)
                assert vals.shape == (20,) + s.shape[:-1]
                for theta, v in zip(thetas, vals):
                    sub, nodes = _pattern_nodes(fam, pattern, theta)
                    ref = np.atleast_1d(_pattern_value_grad(sub, nodes, m, s, (lo, hi))[0])
                    assert np.array_equal(np.atleast_1d(v).view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("exps,dom,atom,pattern", [
    ((0.0, 0.5, 3.0), interval(0.1, 1.2), (0.7, 0.8), "interior_doubles"),
    ((0.0, 1.5, 3.0), halfline(0.0), (1.3, 0.6), "interior_doubles"),
    ((0.0, 0.5, 2.0, 3.5), interval(0.1, 1.2), (0.55, 0.9), "doubles_b"),
    ((0.0, 1.0, 2.5, 3.0), halfline(0.0), (0.9, 0.5), "hl_upper_odd"),
], ids=["2ab", "2halfline", "3ab", "3halfline"])
def test_dual_search_reaches_scan_minimum(exps, dom, atom, pattern):
    # one free zero: the certificate is no worse than the best of a 4001-point
    # scan of every pattern over the search window
    fam = power_family(list(exps), dom)
    L = perturbed_functional(fam, atom, pattern)
    scale = float(np.max(np.abs(L.s)))
    v = sparse_feasibility(L, tol=1e-8)
    assert v.status == "infeasible"
    lo, hi = _search_window(fam)
    scan = lo + (hi - lo) * np.arange(1, 4002) / 4002
    best = min(
        float(L.s @ extremal_test_polys(fam, pat, (t,) if m else ()).a)
        for pat, m in _patterns_for(fam)
        for t in (scan if m else scan[:1])
    )
    assert float(L.s @ v.certificate_poly.a) <= best + 1e-9 * scale


def test_dual_search_builds_few_polys(monkeypatch):
    # the search runs on the node null vector; only end points are built by
    # poly_from_zeros (building every trial point takes about 700 per solve)
    L = criterion_10_instance(2)
    assert L.family.order == 2
    calls = []
    original = extremal.poly_from_zeros

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(extremal, "poly_from_zeros", counting)
    v = sparse_feasibility(L, tol=1e-8)
    assert v.status == "infeasible"
    assert len(calls) <= 20


def test_feasible_functional_solves_no_lp():
    # no LP at all: the residual r of the engine's grid NNLS fit gives the
    # dual search's seeds after the engine's atoms, and an undecided gap
    assert not hasattr(moments, "linprog")
    fam = power_family([0.0, 0.5, 3.0], interval(0.1, 1.2))
    v = sparse_feasibility(MomentFunctional.from_measure(fam, [(0.7, 0.8)]))
    assert (v.status, v.route) == ("feasible", "primal")
    # the engine's atom at 0.7 is the one seed the dual search reads
    L = perturbed_functional(fam, (0.7, 0.8), "interior_doubles")
    v = sparse_feasibility(L)
    assert (v.status, v.route) == ("infeasible", "dual")
    # an atom at the window's end is no seed, nor is p's minimum there (the
    # grid's last point): the coarse scan's starts find the certificate
    L = perturbed_functional(fam, (1.2, 0.8), "interior_doubles")
    assert sparse_feasibility(L).status == "infeasible"
    # the moments of delta_0.5 over 1, x, ..., x^4 with s_0 lowered by 1e-7:
    # L((x - 1/2)^2) at unit max-norm coefficients is -2.5e-8 < -tol * scale,
    # and the grid certificate -r / max |r| proves it before any search
    L = MomentFunctional((1.0 - 1e-7, 0.5, 0.25, 0.125, 0.0625),
                         power_family([0.0, 1.0, 2.0, 3.0, 4.0], interval(0.0, 1.0)))
    v = sparse_feasibility(L)
    assert (v.status, v.route) == ("infeasible", "dual")
    r = moments._grid_fit(L.family, L.s, 2001)[3]
    assert np.array_equal(v.certificate_poly.a, -r / np.max(np.abs(r)))
    assert perfbench_checks().check_certificate(L.s, v) is None


def test_undecided_gap_is_the_grid_residual():
    # delta_0.6633 (weight 0.6803) over 1, x, x^2, x^3 on [0, 1], moved off
    # the cone by 2.2e-8 of its scale along a random direction (draw 54 of
    # the near-boundary census in CHANGES.md): neither the grid certificate
    # nor a search gives a sound certificate, and the gap reported is |r|
    L = MomentFunctional((0.6802781527850223, 0.4512343109041686, 0.2993075697689222,
                          0.19853325808363484),
                         monomial_family(list(range(4)), interval(0.0, 1.0)))
    v = sparse_feasibility(L)
    assert (v.status, v.route) == ("undecided", "none")
    r = moments._grid_fit(L.family, L.s, 2001)[3]
    assert v.gap == float(np.linalg.norm(r)) > 0


@pytest.mark.parametrize("s", [
    # draw 29: delta_0.8443 (weight 0.6339) over 1, ..., x^4, moved by 5.7e-6
    (0.6338961233963336, 0.535209927423153, 0.45188583181613884, 0.38153914745116263,
     0.32214422521709835),
    # draw 77: atoms at 0.4059 and 0.9402 over 1, ..., x^5, moved by 1.8e-6
    (1.3051060096428035, 0.9600169258131346, 0.7942191110591438, 0.7027355091835368,
     0.6428601512307042, 0.597175372687282),
], ids=["draw29", "draw77"])
def test_census_draws_off_the_cone_are_infeasible_and_sound(s):
    # two near-boundary census draws (CHANGES.md) that a search seeded by
    # the clustered atoms decides: the certificate passes the benchmark's
    # independent check and is nonnegative at 50 digits at its minima
    L = MomentFunctional(s, monomial_family(list(range(len(s))), interval(0.0, 1.0)))
    v = sparse_feasibility(L)
    assert (v.status, v.route) == ("infeasible", "dual")
    assert float(L.s @ v.certificate_poly.a) < -1e-8 * float(np.max(np.abs(L.s)))
    assert perfbench_checks().check_certificate(L.s, v) is None
    _assert_nonneg_at_probe_minima_in_mpmath(v.certificate_poly)


def test_each_stage_runs_only_where_the_one_before_fails(monkeypatch):
    # grid certificate -> clustered stage -> each pattern's seeded start ->
    # the whole engine -> the full multistart, counted by clustered-stage
    # runs, engine runs and L-BFGS-B starts; order 2 on an interval has one
    # pattern with a free zero, so the seeded pass makes at most one start
    clustered = _count_runs(monkeypatch, "_clustered_atoms")
    engine = _count_runs(monkeypatch, "_primal_atoms")
    starts = []
    original = extremal.minimize

    def counting(*args, **kwargs):
        starts.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(extremal, "minimize", counting)

    def stages(L):
        for runs in (clustered, engine, starts):
            runs.clear()
        v = sparse_feasibility(L)
        assert (v.status, v.route) == ("infeasible", "dual")
        return len(clustered), len(engine), len(starts)

    # the grid certificate: no engine stage, no search
    L = MomentFunctional((1.0 - 1e-7, 0.5, 0.25, 0.125, 0.0625),
                         power_family([0.0, 1.0, 2.0, 3.0, 4.0], interval(0.0, 1.0)))
    assert stages(L) == (0, 0, 0)
    fam = power_family([0.0, 0.5, 3.0], interval(0.1, 1.2))
    # the seeded start from the clustered atom at 0.7: the whole engine
    # never runs
    L = perturbed_functional(fam, (0.7, 0.8), "interior_doubles")
    assert stages(L) == (1, 0, 1)
    # an atom at the window's end is no seed, nor is p's minimum there: the
    # seeded pass makes no start, and the whole engine and then the full
    # multistart run
    L = perturbed_functional(fam, (1.2, 0.8), "interior_doubles")
    once, runs, made = stages(L)
    assert once == 1 and runs == 1 and made > 1


def test_search_yields_each_end_point_once(monkeypatch):
    # a start that reaches an end point its pattern already has stops there
    # and yields nothing: the eight starts into one basin give one end point
    # for far fewer evaluations than running each start to its end
    nfev = []
    original = extremal.minimize

    def counting(*args, **kwargs):
        res = original(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(extremal, "minimize", counting)
    fam = power_family([0.0, 0.5, 3.0], interval(0.1, 1.2))
    s = MomentFunctional.from_measure(fam, [(0.7, 0.8)]).s - np.array([1e-6, 0.0, 0.0])

    def ends():
        return [theta for pattern, theta, _ in extremal.search(fam, s, lambda v, g: (v, g),
                                                               np.random.default_rng(0), 4, [0.7])
                if pattern == "interior_doubles"]

    found = ends()
    assert len(found) == 1 and abs(found[0][0] - 0.7) < 1e-5
    stopped = sum(nfev)
    nfev.clear()
    monkeypatch.setattr(extremal, "SAME_END", 0.0)
    assert len(ends()) == 8 and sum(nfev) > 1.5 * stopped


def test_seeds_within_the_separation_guard_are_one_seed():
    # two seeds closer than search's separation guard (1e-6 of the window)
    # make a start its objective rejects, which L-BFGS-B never leaves: the
    # later one is dropped, and the seeded start from the atoms reaches an
    # end point below zero
    fam = power_family([0.0, 0.5, 1.5, 2.5, 4.0], interval(0.1, 1.2))
    seeds = [0.3, 0.3 + 1e-9, 0.05, 0.9, 0.3 + 2e-6]
    assert extremal._interior(fam, seeds) == [0.3, 0.9, 0.3 + 2e-6]
    s = MomentFunctional.from_measure(fam, [(0.3, 0.5), (0.9, 0.7)]).s
    s[0] -= 1e-6
    ends = [(theta, value) for pattern, theta, value
            in extremal.search(fam, s, lambda v, g: (v, g), np.random.default_rng(0), 4,
                               [0.3, 0.3 + 1e-9, 0.9], seeded_only=True)
            if pattern == "interior_doubles"]
    assert len(ends) == 1 and ends[0][1] < 0
    assert np.max(np.abs(ends[0][0] - [0.3, 0.9])) < 1e-3


def _polish_evaluations(monkeypatch) -> list:
    """Counts, one list entry per polish, the residual evaluations that
    _polish_atoms' driver makes."""
    counts, driver = [], moments._bounded_lm

    def counting(fun, *args):
        counts.append(0)

        def counted(z):
            counts[-1] += 1
            return fun(z)

        return driver(counted, *args)

    monkeypatch.setattr(moments, "_bounded_lm", counting)
    return counts


def test_polish_ends_once_settled(monkeypatch):
    # an ill-conditioned fit far inside tol lowers its cost by a few percent
    # a step: the polish ends there instead of running to its 400 evaluations
    evaluations = _polish_evaluations(monkeypatch)
    fam = power_family([0.0, 0.5, 4.5, 5.0, 5.5, 7.0, 8.0], interval(0.1, 1.2))
    atoms = [(0.1301116528808206, 0.8447325299228715), (0.4118958010193691, 0.406148745114975),
             (0.4934852036395183, 0.48361652799181204)]
    L = MomentFunctional.from_measure(fam, atoms)
    m = recover_atoms(L)
    assert len(m.atoms) == 3
    assert np.max(np.abs(m.moments(fam) - L.s)) <= 1e-8 * np.max(np.abs(L.s))
    assert evaluations and max(evaluations) < 400


def test_polish_follows_a_bent_valley_to_the_representation():
    # fresh primal draw 195 of test_fresh_primal_draws_keep_their_atom_counts
    # ("6:3:halfline"): _reduce_support's 3-atom trial from its merged
    # support.  The exact representation lies along a narrow bent valley
    # that a trust region alone crawls along (to about abs_tol in 400
    # evaluations); Gauss-Newton steps reach it
    fam = power_family([0.0, 1.0, 1.5, 6.0, 6.5, 7.0, 9.0], halfline(0.0))
    s = np.array([1.9992441869011333, 2.7076770968338297, 3.7808737010137756, 158.12182439258493,
                  241.17684844218235, 367.8604790857675, 1991.0497175609555])
    abs_tol = 1e-8 * float(np.max(np.abs(s)))
    x, w, res = moments._polish_atoms(
        fam, s, [0.3708330365832077, 0.4639205365753834, 2.3264860319695204],
        [0.8287403262641746, 0.17331367830751812, 0.9971901823294519], *moments._polish_box(fam), abs_tol)
    assert res <= 1e-2 * abs_tol and np.all(w > 0)
    np.testing.assert_allclose(x, [0.35349, 0.44256, 2.32649], rtol=0, atol=1e-5)


def test_polish_of_close_atoms_reaches_the_rounding_floor():
    # test_close_atoms_are_recovered[power_halfline] at d = 1e-4: the grid
    # fit's two support columns polished as two atoms, with a Jacobian of
    # condition 6e9, on which Gauss-Newton steps halved until they lower the
    # cost crawl (one such driver stalled at 2.6e-7 of scale)
    fam = power_family([0.0, 0.5, 1.5, 2.5, 4.0], halfline(0.0))
    s = MomentFunctional.from_measure(fam, [(0.3117, 0.6), (0.3118, 0.4)]).s
    abs_tol = 1e-8 * float(np.max(np.abs(s)))
    x, w, res = moments._polish_atoms(fam, s, [0.3111797740820855, 0.311880323448373],
                                      [0.20034884234045167, 0.7996511855974002],
                                      *moments._polish_box(fam), abs_tol)
    assert res <= 1e-2 * abs_tol


def test_polish_of_an_undecided_functional_ends_at_the_least_squares_minimum():
    # census draw 54 (test_undecided_gap_is_the_grid_residual): its two grid
    # support columns, polished as two atoms, merge at the one-atom fit,
    # whose moment residual is above tol.  A Gauss-Newton driver stopped
    # short of that minimum, at a cost 18% higher but a moment residual of
    # 6.66e-9 below tol 6.80e-9, and the verdict turned feasible
    fam = monomial_family(list(range(4)), interval(0.0, 1.0))
    s = np.array([0.6802781527850223, 0.4512343109041686, 0.2993075697689222, 0.19853325808363484])
    abs_tol = 1e-8 * float(np.max(np.abs(s)))
    box = moments._polish_box(fam)
    rsc = np.abs(s)

    def cost(x, w):
        r = (fam.eval_grid(np.asarray(x)).T @ w - s) / rsc
        return float(r @ r)

    x1, w1, res1 = moments._polish_atoms(fam, s, [0.6633], [0.68], *box, abs_tol)
    x, w, res = moments._polish_atoms(fam, s, [0.6632999999999999, 0.6633249999999999],
                                      [0.4480240245998238, 0.2322541304764963], *box, abs_tol)
    assert res > abs_tol and res1 > abs_tol
    assert cost(x, w) <= cost(x1, w1) * (1 + 1e-6)


@pytest.mark.parametrize("params,s", [
    ((0.0, 0.5, 1.5, 3.5, 6.0, 7.0), (0.23723359090909435, 0.2293030854044262, 0.2144956206800509,
                                      0.18784745816627293, 0.15890314792013596, 0.14878905460713707)),
    ((0.0, 0.5, 4.0, 4.5, 7.0, 7.5), (0.38989257053185394, 0.3553220866442218, 0.2521756737975415,
                                      0.20755704094772598, 0.19239507691687888, 0.17569560629532366)),
], ids=["grid_certificate", "working_set"])
def test_engine_raises_no_runtime_warning(params, s):
    # two half-line functionals drawn by test_nnls_residual_is_a_grid_certificate
    # and test_working_set_nnls_matches_full_grid_nnls, on which a trust-region
    # polish step can overflow: no RuntimeWarning from any module while the
    # engine runs (recorded, since a raised one could be caught)
    fam = power_family(list(params), halfline(0.0))
    s = np.array(s)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        moments._primal_atoms(fam, s, 2001, 1e-8 * float(np.max(np.abs(s))))
        sparse_feasibility(MomentFunctional(tuple(s), fam))
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("exps,dom,atoms", [
    ((0.0, 0.5, 1.0, 2.0), interval(0.1, 1.0), [(0.2, 0.3), (0.8, 0.7)]),
    ((0.0, 1.0, 2.5, 4.0), interval(0.1, 1.2), [(0.45, 0.6)]),
    ((0.0, 1.5, 2.0, 3.5, 5.0), halfline(0.0), [(0.4, 0.5), (1.9, 0.9)]),
], ids=["ab2", "ab1", "halfline2"])
def test_witness_is_recover_atoms(exps, dom, atoms):
    # one primal engine: the feasibility witness is the recovered measure
    L = MomentFunctional.from_measure(power_family(list(exps), dom), atoms)
    v = sparse_feasibility(L)
    assert v.status == "feasible"
    assert v.witness_measure == recover_atoms(L)


def _count_runs(monkeypatch, name: str) -> list:
    runs = []
    original = getattr(moments, name)

    def counting(*args):
        runs.append(args)
        return original(*args)

    monkeypatch.setattr(moments, name, counting)
    return runs


def test_feasibility_then_recovery_runs_the_engine_once(monkeypatch):
    runs = _count_runs(monkeypatch, "_primal_atoms")
    fam = power_family([0.0, 0.5, 1.0, 2.0], interval(0.1, 1.0))
    L = MomentFunctional.from_measure(fam, [(0.2, 0.3), (0.8, 0.7)])
    v = sparse_feasibility(L)
    assert v.status == "feasible" and len(runs) == 1
    assert recover_atoms(L) == v.witness_measure
    assert len(runs) == 1
    # the same functional rebuilt from its values is the same key
    assert recover_atoms(MomentFunctional(tuple(L.s), fam)) == v.witness_measure
    assert len(runs) == 1


def test_recovery_after_the_grid_certificate_runs_the_whole_engine(monkeypatch):
    # the grid certificate decides before the engine runs; recover_atoms
    # then runs the whole engine, on the grid fit the first call made
    runs = _count_runs(monkeypatch, "_primal_atoms")
    fits = []
    original = moments.nnls

    def counting(*args, **kwargs):
        fits.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(moments, "nnls", counting)
    L = MomentFunctional((1.0 - 1e-7, 0.5, 0.25, 0.125, 0.0625),
                         power_family([0.0, 1.0, 2.0, 3.0, 4.0], interval(0.0, 1.0)))
    assert sparse_feasibility(L).route == "dual" and not runs
    solves = len(fits)
    assert recover_atoms(L, assume_feasible=True).atoms
    assert len(runs) == 1 and len(fits) == solves
    with pytest.raises(NotFeasible):
        recover_atoms(L)
    assert len(runs) == 1


def test_changed_inputs_run_the_engine_again(monkeypatch):
    runs = _count_runs(monkeypatch, "_primal_atoms")
    fam = power_family([0.0, 0.5, 1.0, 2.0], interval(0.1, 1.0))
    L = MomentFunctional.from_measure(fam, [(0.2, 0.3), (0.8, 0.7)])
    recover_atoms(L)
    other_family = power_family([0.0, 0.5, 1.0, 2.0], interval(0.1, 1.1))
    s = L.s.copy()
    s[2] *= 1 + 1e-12
    recover_atoms(L, tol=1e-9)
    recover_atoms(L, grid=1001)
    recover_atoms(MomentFunctional(tuple(s), fam), assume_feasible=True)
    recover_atoms(MomentFunctional(tuple(L.s), other_family), assume_feasible=True)
    assert len(runs) == 5


def test_memoized_engine_result_is_read_only():
    fam = power_family([0.0, 1.0, 2.5, 4.0], interval(0.1, 1.2))
    s = MomentFunctional.from_measure(fam, [(0.45, 0.6)]).s
    first = moments._shared(moments._primal_atoms, fam, s, 2001, 1e-8)
    kept = [np.array(part) for part in first]
    for part in (first[0], first[1]):
        with pytest.raises(ValueError):
            part[0] = 0.5
    again = moments._shared(moments._primal_atoms, fam, s, 2001, 1e-8)
    for part, copy in zip(again, kept):
        assert np.array_equal(part, copy)


def test_array_params_family_is_decided_and_recovered():
    # params held as an array, which cannot be hashed
    fam = FamilySpec("exponential", np.array([0.0, 1.0, 2.0]), interval(0, 1))
    L = MomentFunctional.from_measure(fam, [(0.4, 1.0)])
    v = sparse_feasibility(L)
    assert v.status == "feasible"
    m = recover_atoms(L)
    assert m == v.witness_measure
    assert len(m.atoms) == 1 and abs(m.atoms[0][0] - 0.4) < 1e-9
    # L((e^x - e^0.4)^2) = -1e-3 e^0.8 < 0
    bad = MomentFunctional((1.0 - 1e-3, math.exp(0.4), math.exp(0.8)), fam)
    assert sparse_feasibility(bad).status == "infeasible"
    with pytest.raises(NotFeasible, match="run sparse_feasibility first"):
        recover_atoms(bad)


class _Monomial:
    """x^d as an evaluator object that compares by value, so it has no hash."""

    def __init__(self, d):
        self.d = d

    def __eq__(self, other):
        return self.d == other.d

    def __call__(self, x, k):
        return math.perm(self.d, k) * x ** (self.d - k) if k <= self.d else 0.0


def test_unhashable_evaluators_share_the_engine_run(monkeypatch):
    runs = _count_runs(monkeypatch, "_primal_atoms")
    fam = custom_family([_Monomial(d) for d in range(3)], interval(0, 1))
    L = MomentFunctional.from_measure(fam, [(0.4, 1.0)])
    v = sparse_feasibility(L, grid=201)
    assert v.status == "feasible"
    assert recover_atoms(L, grid=201) == v.witness_measure
    assert len(runs) == 1


@st.composite
def atomic_functionals(draw):
    """Moments of 1..ceil(n/2) separated atoms over a power family of order
    n = 2..5 on [0.1, 1.2] or [0, inf)."""
    n = draw(st.integers(2, 5))
    halves = draw(st.lists(st.integers(1, 3 * n), min_size=n, max_size=n, unique=True))
    on_halfline = draw(st.booleans())
    fam = power_family([0.0] + sorted(0.5 * h for h in halves),
                       halfline(0.0) if on_halfline else interval(0.1, 1.2))
    lo, hi = (0.08, 2.5) if on_halfline else (0.12, 1.18)
    k = draw(st.integers(1, -(-n // 2)))
    # one atom per k-th of [lo, hi], kept off the cell ends: separation >= 0.1
    cells = draw(st.lists(st.floats(0.15, 0.85), min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k))
    atoms = [(lo + (hi - lo) * (j + u) / k, w) for j, (u, w) in enumerate(zip(cells, weights))]
    return MomentFunctional.from_measure(fam, atoms)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(atomic_functionals())
def test_atomic_functionals_are_feasible(L):
    tol = 1e-8
    v = sparse_feasibility(L, tol=tol)
    assert v.status == "feasible"
    assert 1 <= len(v.witness_measure.atoms) <= L.family.order
    res = np.max(np.abs(v.witness_measure.moments(L.family) - L.s))
    assert res <= tol * np.max(np.abs(L.s))


@st.composite
def functionals_around_the_cone(draw):
    """An atomic functional, kept or moved off along a random direction by
    up to 1e-1 of its scale (inside and outside the cone)."""
    L = draw(atomic_functionals())
    size = draw(st.sampled_from([0.0, 1e-6, 1e-3, 1e-1]))
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=L.family.size,
                               max_size=L.family.size)))
    return L.s + size * float(np.max(np.abs(L.s))) * u, L.family


@settings(max_examples=30, deadline=None, derandomize=True)
@given(functionals_around_the_cone())
def test_nnls_residual_is_a_grid_certificate(case):
    # the KKT conditions of the engine's grid fit min |s - A w|, w >= 0:
    # A^T r <= 0 (p = -sum r_i f_i >= 0 on the grid) and w . A^T r = 0,
    # so s . r = |r|^2, i.e. L(p) = -|r|^2; both to 1e-6 of |r|, above the
    # rounding of r = s - A w itself, about 1e-13 |s| (a fit inside the cone
    # leaves r at that level)
    s, fam = case
    xs, _, _, r = moments._grid_fit(fam, s, 2001)
    A = fam.eval_grid(xs).T
    norm, snorm = float(np.linalg.norm(r)), float(np.linalg.norm(s))
    slack = 1e-6 * norm + 1e-13 * snorm
    assert np.min(-(A.T @ r)) >= -slack * float(np.max(np.linalg.norm(A, axis=0)))
    assert abs(float(s @ r) - norm**2) <= slack * snorm


def _kkt_tol(s) -> float:
    return 10 * np.finfo(float).eps * float(np.linalg.norm(s))


def _assert_matches_full_grid_nnls(A, s, r):
    # r against scipy's nnls on every column at once: the same optimum, the
    # optimality condition on every column, and L(p) = -|r|^2
    colnorm = np.linalg.norm(A, axis=0)
    colnorm[colnorm == 0] = 1.0
    _, full = scipy_nnls(A / colnorm, s, maxiter=10 * A.shape[1])
    norm, snorm = float(np.linalg.norm(r)), float(np.linalg.norm(s))
    assert abs(norm - full) <= 1e-2 * full + 1e-13 * snorm
    assert np.all((A / colnorm).T @ r <= _kkt_tol(s))
    assert abs(float(s @ r) - norm**2) <= (1e-6 * norm + 1e-13 * snorm) * snorm


@settings(max_examples=30, deadline=None, derandomize=True)
@given(functionals_around_the_cone())
def test_working_set_nnls_matches_full_grid_nnls(case):
    s, fam = case
    xs, _, _, r = moments._grid_fit(fam, s, 2001)
    _assert_matches_full_grid_nnls(fam.eval_grid(xs).T, s, r)


def _nnls_on(A, s, work):
    """_working_set_nnls on the columns ``work`` of A, from A's column norms."""
    inw = np.zeros(A.shape[1], dtype=bool)
    inw[work] = True
    return moments._working_set_nnls(A, np.linalg.norm(A, axis=0), s, inw)


def test_working_set_nnls_edge_cases():
    fam = power_family([0.0, 0.5, 3.0], interval(0.1, 1.2))
    xs = moments._primal_grid(fam, 2001)
    A = fam.eval_grid(xs).T
    work = np.arange(0, len(xs) - 1, 10)  # every 10th column but the last
    # s = 0: no weights, r = 0
    w, r = _nnls_on(A, np.zeros(3), work)
    assert not np.any(w) and not np.any(r)
    # an atom exactly at the window's end, outside the working columns
    s = MomentFunctional.from_measure(fam, [(1.2, 0.8)]).s
    w, r = _nnls_on(A, s, work)
    _assert_matches_full_grid_nnls(A, s, r)
    assert float(np.linalg.norm(r)) <= 1e-13 * float(np.linalg.norm(s))
    # ... and moved off the cone, through the engine
    s = perturbed_functional(fam, (1.2, 0.8), "interior_doubles").s
    xs2, _, _, r = moments._grid_fit(fam, s, 2001)
    _assert_matches_full_grid_nnls(fam.eval_grid(xs2).T, s, r)
    # a zero column, inside and outside the working set
    for j in (0, 5):
        Az = A.copy()
        Az[:, j] = 0.0
        w, r = _nnls_on(Az, s, work)
        assert w[j] == 0.0
        _assert_matches_full_grid_nnls(Az, s, r)


def test_working_set_nnls_below_the_rounding_of_the_optimality_check():
    # a criterion-10-style functional (1.5 tol * scale off the cone) whose
    # grid optimum sits where g = (A/colnorm)^T r is at its rounding level:
    # the coarse fit passes the check with |r| 2-4 times the optimum, so the
    # engine must move its support on the whole grid to find the optimum
    fam = power_family([0.0, 0.5, 1.5, 2.5, 4.0, 5.5, 8.5], halfline(0.0))
    s = np.array([2.40623568539076, 2.9467082583414523, 5.4030422793862805, 11.449162464241406,
                  39.23790384315418, 141.99650875362363, 2007.3056152600561])
    xs, _, _, r = moments._grid_fit(fam, s, 2001)
    _assert_matches_full_grid_nnls(fam.eval_grid(xs).T, s, r)
    v = sparse_feasibility(MomentFunctional(tuple(s), fam))
    assert v.status == "undecided" and v.gap == float(np.linalg.norm(r))


def test_engine_solves_nnls_on_few_columns_and_checks_every_one(monkeypatch):
    # moment_primal corpus call 10 (stratum 5:3:ab)
    fam = power_family([0.0, 0.5, 1.0, 1.5, 3.5, 4.5], interval(0.1, 1.2))
    s = np.array([1.7830169672014002, 1.2550221010663978, 0.9766821217583913,
                  0.8149657517526863, 0.5194286252679351, 0.43445343132208925])
    columns = []

    def counting(A, b, **kwargs):
        columns.append(A.shape[1])
        return scipy_nnls(A, b, **kwargs)

    monkeypatch.setattr(moments, "nnls", counting)
    res = moments._primal_atoms(fam, s, 2001, 1e-8 * float(np.max(s)))[2]
    xs, _, _, r = moments._grid_fit(fam, s, 2001)
    assert res <= 1e-8 * float(np.max(s))
    grid = len(moments._primal_grid(fam, 2001))
    assert columns and max(columns) < grid // 4
    A = fam.eval_grid(xs).T
    assert np.all((A / np.linalg.norm(A, axis=0)).T @ r <= _kkt_tol(s))


def test_dual_seeds_one_per_basin():
    fam = power_family([0.0, 0.5, 3.0], interval(0.1, 1.2))
    # p's only basin holds the window's end: it is a seed
    s = perturbed_functional(fam, (1.2, 0.8), "interior_doubles").s
    xs, A, _, r = moments._grid_fit(fam, s, 2001)
    seeds = moments._dual_seeds(xs, A, r)
    assert len(seeds) == 1 and abs(seeds[0] - 1.2) < 1e-3
    # two atoms, two basins: one seed at each
    fam = power_family([0.0, 0.5, 1.5, 2.5, 4.0], interval(0.1, 1.2))
    L = MomentFunctional.from_measure(fam, [(0.3, 0.5), (0.9, 0.7)])
    s = L.s.copy()
    s[0] -= 1e-6 * float(np.max(np.abs(s)))
    xs, A, _, r = moments._grid_fit(fam, s, 2001)
    seeds = sorted(moments._dual_seeds(xs, A, r))
    assert len(seeds) == 2
    assert abs(seeds[0] - 0.3) < 0.05 and abs(seeds[1] - 0.9) < 0.05


@pytest.mark.parametrize("make", [
    lambda: MomentFunctional((1.0 - 1e-7, 0.5, 0.25, 0.125, 0.0625),
                             power_family([0.0, 1.0, 2.0, 3.0, 4.0], interval(0.0, 1.0))),
    lambda: perturbed_functional(power_family([0.0, 0.5, 3.0], interval(0.1, 1.2)), (0.7, 0.8),
                                 "interior_doubles"),
    lambda: perturbed_functional(power_family([0.0, 0.5, 3.0], halfline(0.0)), (0.7, 0.8),
                                 "interior_doubles"),
    lambda: criterion_10_instance(0),
    lambda: criterion_10_instance(5),
], ids=["delta_0.5", "2ab", "2halfline", "criterion10_0_4ab", "criterion10_5_4halfline"])
def test_grid_certificate_value_is_minus_r_squared_over_max_r(make):
    # p_r = -r / max |r_i| has L(p_r) = -|r|^2 / max |r_i| (the KKT
    # identity s . r = |r|^2 of the grid fit), and |r|^2 / max |r_i| >= |r|:
    # the screen's L < -tol * scale passes whenever |r| > tol * scale
    L = make()
    s = L.s
    r = moments._grid_fit(L.family, s, 2001)[3]
    norm, top, snorm = float(np.linalg.norm(r)), float(np.max(np.abs(r))), float(np.linalg.norm(s))
    assert norm > 0
    value = float(s @ (-r / top))
    assert abs(value + norm**2 / top) <= (1e-6 * norm + 1e-13 * snorm) * snorm / top
    assert norm**2 / top >= norm


@st.composite
def boundary_functionals(draw):
    """Criterion 10's construction at orders n = 2..6 on [0.1, 1.2] or
    [0, inf): the moments of 1..n/2 atoms, and the extremal direction p_hat
    with a double zero at each atom, padded to index n by more doubles and,
    for odd n, a simple zero at the left end.  The n/2 doubles lie one per
    n/2-th of the window, off the cell ends, the atoms in k of those cells."""
    n = draw(st.integers(2, 6))
    halves = draw(st.lists(st.integers(1, 3 * n), min_size=n, max_size=n, unique=True))
    on_halfline = draw(st.booleans())
    fam = power_family([0.0] + sorted(0.5 * h for h in halves),
                       halfline(0.0) if on_halfline else interval(0.1, 1.2))
    lo, hi = (0.08, 2.5) if on_halfline else (0.12, 1.18)
    cells = draw(st.lists(st.floats(0.15, 0.85), min_size=n // 2, max_size=n // 2))
    doubles = [lo + (hi - lo) * (j + u) / len(cells) for j, u in enumerate(cells)]
    held = draw(st.lists(st.sampled_from(range(len(doubles))), min_size=1, unique=True))
    weights = draw(st.lists(st.floats(0.2, 1.0), min_size=len(held), max_size=len(held)))
    nodes = [(x, 2) for x in doubles] + ([(0.0 if on_halfline else 0.1, 1)] if n % 2 else [])
    try:
        p_hat = poly_from_zeros(fam, NodeSet.of(*nodes), check_certificate=False)
    except TSystemError:
        assume(False)
    atoms = [(doubles[j], w) for j, w in zip(sorted(held), weights)]
    return MomentFunctional.from_measure(fam, atoms), p_hat


def _assert_nonneg_at_probe_minima_in_mpmath(p: SparsePoly):
    # near-zero local minima on each probe grid, re-evaluated from the
    # coefficients in 50-digit mpmath against the windowed running max of |p|
    alphas = [mpmath.mpf(float(al)) for al in p.family.params]
    for probe in moments._probes(p.family):
        vals = p(probe)
        local = maximum_filter1d(np.abs(vals), size=2 * (len(probe) // 50) + 1, mode="nearest")
        inner = (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])
        minima = np.flatnonzero(np.concatenate([[vals[0] <= vals[1]], inner, [vals[-1] <= vals[-2]]])
                                & (vals < 1e-2 * local))
        with mpmath.workdps(50):
            for i in minima:
                x = mpmath.mpf(float(probe[i]))
                value = mpmath.fsum(mpmath.mpf(float(c)) * mpmath.power(x, al) for c, al in zip(p.a, alphas))
                assert value >= -CERT_TOL * local[i], (float(probe[i]), float(value), local[i])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(boundary_functionals())
def test_grid_certificate_keeps_verdicts_sound(case):
    # the grid certificate screen never decides a feasible functional; moved
    # outward along p_hat's coefficients by 10 tol * scale, so that
    # L(p_hat) <= -10 tol * scale, it is infeasible, with a certificate
    # nonnegative at 50 digits at its probe-grid minima
    L, p_hat = case
    tol = 1e-8
    scale = float(np.max(np.abs(L.s)))
    v = sparse_feasibility(L, tol=tol)
    assert (v.status, v.route) == ("feasible", "primal")
    s = L.s - 10 * tol * scale * p_hat.a / np.linalg.norm(p_hat.a)
    v = sparse_feasibility(MomentFunctional(tuple(s), L.family), tol=tol)
    assert (v.status, v.route) == ("infeasible", "dual")
    assert float(s @ v.certificate_poly.a) < -tol * scale
    _assert_nonneg_at_probe_minima_in_mpmath(v.certificate_poly)


@pytest.mark.parametrize("fam,one_atom_up_to", [
    (monomial_family(list(range(5)), interval(0.0, 1.0)), (3e-5, 1e-4)),
    (power_family([0.0, 0.5, 1.5, 2.5, 4.0], interval(0.1, 1.2)), (3e-5, 1e-4)),
    (power_family([0.0, 0.5, 1.5, 2.5, 4.0], halfline(0.0)), (3e-5, 1e-4)),
    (monomial_family(list(range(7)), interval(0.0, 1.0)), (3e-5, 3e-5)),
], ids=["mono4", "power_ab", "power_halfline", "mono6"])
def test_close_atoms_are_recovered(fam, one_atom_up_to):
    # 0.6 delta_x0 + 0.4 delta_(x0+d): atoms closer than the grid's spacing
    # are one cluster of grid columns, and where one atom misses tol the
    # engine polishes the unmerged support.  The recovered measure has at
    # most the atoms the engine found before the clustered stage: one up to
    # the separation where one atom matches the moments to tol, else two
    for x0, one_atom in zip((0.3117, 0.7731), one_atom_up_to):
        for d in (1e-7, 1e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3):
            L = MomentFunctional.from_measure(fam, [(x0, 0.6), (x0 + d, 0.4)])
            v = sparse_feasibility(L)
            assert (v.status, v.route) == ("feasible", "primal"), (x0, d)
            assert len(recover_atoms(L).atoms) <= (1 if d <= one_atom else 2), (x0, d)


@st.composite
def separated_boundary_functionals(draw):
    """The moments of k atoms, 2k <= n, at least 0.05 apart, over a power
    family of order n = 2..6 on [0.1, 1.2] or [0, inf): boundary functionals,
    each with one representing measure."""
    n = draw(st.integers(2, 6))
    halves = draw(st.lists(st.integers(1, 3 * n), min_size=n, max_size=n, unique=True))
    on_halfline = draw(st.booleans())
    fam = power_family([0.0] + sorted(0.5 * h for h in halves),
                       halfline(0.0) if on_halfline else interval(0.1, 1.2))
    lo, hi = (0.08, 2.5) if on_halfline else (0.12, 1.18)
    k = draw(st.integers(1, n // 2))
    pos = sorted(draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k)))
    assume(np.all(np.diff(pos) >= 0.05))
    weights = draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k))
    return MomentFunctional.from_measure(fam, list(zip(pos, weights))), k


@settings(max_examples=100, deadline=None, derandomize=True)
@given(separated_boundary_functionals())
def test_boundary_functionals_polish_one_atom_per_cluster(case):
    # the grid fit's support around each atom is one cluster of grid
    # columns: the clustered stage polishes exactly k atoms, and the
    # recovered measure is the k-atom one
    L, k = case
    tol = 1e-8
    v = sparse_feasibility(L, tol=tol)
    assert (v.status, v.route) == ("feasible", "primal")
    atoms = moments._shared(moments._clustered_atoms, L.family, L.s, 2001,
                            tol * float(np.max(np.abs(L.s))))[0]
    assert len(atoms) == k
    assert len(recover_atoms(L, tol=tol).atoms) == k


def _census():
    """The near-boundary census: 120 draws from default_rng(7), each the
    moments over 1, x, ..., x^n (n = 2..6) on [0, 1] of 1..n//2+1 atoms,
    moved off by 10^(-8..-5) of their scale along a random direction."""
    rng = np.random.default_rng(7)
    draws = []
    for _ in range(120):
        n = int(rng.integers(2, 7))
        fam = monomial_family(list(range(n + 1)), interval(0.0, 1.0))
        k = int(rng.integers(1, n // 2 + 2))
        atoms = list(zip(np.sort(rng.uniform(0, 1, k)), rng.uniform(0.2, 1, k)))
        d = rng.normal(size=n + 1)
        s = MomentFunctional.from_measure(fam, atoms).s
        s = s + 10 ** rng.uniform(-8, -5) * float(np.max(np.abs(s))) * d / np.max(np.abs(d))
        draws.append(MomentFunctional(tuple(s), fam))
    return draws


#: each census draw's verdict when this guard was recorded: the witness's
#: atom count where feasible, i(nfeasible) or u(ndecided)
CENSUS_VERDICTS = (
    "iiii3iiii33i232i3i3i222ii2i21iiu32iiii22"  # 0-39
    "i266i3ii2i41iiui242ii2ii23332i3iiii2ii21"  # 40-79
    "iiii3i2444ii25ii2ii232iii2ii2ii2424224i2"  # 80-119
)


def test_census_verdicts_hold():
    # the moment engine's guard: no feasible or infeasible verdict flips, no
    # witness gains an atom, every verdict passes the benchmark's independent
    # checks, and the undecided draws (31 and 54) may only become decided
    checks = perfbench_checks()
    for i, (L, was) in enumerate(zip(_census(), CENSUS_VERDICTS)):
        v = sparse_feasibility(L)
        if was == "i":
            assert v.status == "infeasible", i
        elif was != "u":
            assert v.status == "feasible" and len(v.witness_measure.atoms) <= int(was), i
        if v.status == "infeasible":
            assert checks.check_certificate(L.s, v) is None, i
        elif v.status == "feasible":
            assert checks.check_atoms(L.family, v.witness_measure.atoms, L.s, 1e-8) is None, i


#: the recovered atom count of each fresh moment_primal draw when this guard
#: was recorded: four rounds of the benchmark's strata from default_rng(5),
#: then four from default_rng(17), one round a line
FRESH_PRIMAL_ATOMS = (
    "1111211211311311112112113113"
    "1111211211311311112112113113"
    "1111211211611311112112114113"
    "1111211211311311112112114113"
    "1111211211311311112112114113"
    "1111211211311311112112113113"
    "1111211211311311112112113113"
    "1111211211311311112112113113"
)


def test_fresh_primal_draws_keep_their_atom_counts():
    # feasible functionals drawn as the moment_primal benchmark draws them,
    # but not its corpus: each must pass its check (feasible, witness and
    # recovered measure within tol), with no more atoms than recorded
    workloads = perfbench_workloads()
    draws = [workloads.primal_make(rng, stratum)
             for rng in (np.random.default_rng(5), np.random.default_rng(17))
             for _ in range(4) for stratum in workloads.PRIMAL_STRATA]
    for i, (inst, was) in enumerate(zip(draws, FRESH_PRIMAL_ATOMS, strict=True)):
        inst.output = workloads.primal_call(inst)
        assert workloads.primal_check(inst) is None, i
        assert len(inst.output[1].atoms) <= int(was), i


def test_grid_fit_evaluates_each_point_once_to_the_same_bits(monkeypatch):
    # the fit keeps the rows of the points it has evaluated and each round
    # evaluates only its new points: its A must still be eval_grid on its
    # final grid bit for bit, a guard against rows that depend on their batch
    cases = [(L.family, L.s) for L in _census()]
    cases += [(inst.args["family"], inst.args["s"])
              for inst in perfbench_workloads().WORKLOADS["moment_primal"].corpus()]
    evaluated = []
    eval_grid = FamilySpec.eval_grid

    def recording(self, xs, order=0):
        evaluated.append(np.asarray(xs, dtype=float).ravel())
        return eval_grid(self, xs, order)

    monkeypatch.setattr(FamilySpec, "eval_grid", recording)
    for i, (fam, s) in enumerate(cases):
        evaluated.clear()
        xs, A, _, _ = moments._grid_fit(fam, np.asarray(s, dtype=float), 2001)
        points = np.concatenate(evaluated)
        assert len(np.unique(points)) == len(points), i
        assert np.all(np.diff(xs) > 0), i
        assert np.array_equal(A, eval_grid(fam, xs).T), i


@pytest.mark.parametrize("make, status, searches", [
    (lambda: MomentFunctional.from_measure(power_family([0.0, 0.5, 1.5, 2.5, 4.0],
                                                        interval(0.1, 1.2)),
                                           [(0.3, 0.5), (0.9, 0.7)]), "feasible", 0),
    (lambda: criterion_10_instance(0), "infeasible", 0),
    (lambda: criterion_10_instance(1), "infeasible", 1),
    (lambda: criterion_10_instance(5), "infeasible", 2),
], ids=["feasible", "criterion10_0_grid", "criterion10_1_seeded", "criterion10_5_multistart"])
def test_dual_seeds_are_built_only_for_a_dual_search(monkeypatch, make, status, searches):
    # a functional decided before the dual search builds no seeds; the seeded
    # search and the full multistart share the seeds of one build
    seeds, seeded = [], []
    dual_seeds, dual_search = moments._dual_seeds, moments._dual_search

    def counting_seeds(*args):
        seeds.append(dual_seeds(*args))
        return seeds[-1]

    def recording_search(L, tol, seed, starts, theta_seeds=(), seeded_only=False):
        seeded.append(list(theta_seeds))
        return dual_search(L, tol, seed, starts, theta_seeds, seeded_only)

    monkeypatch.setattr(moments, "_dual_seeds", counting_seeds)
    monkeypatch.setattr(moments, "_dual_search", recording_search)
    v = sparse_feasibility(make())
    assert v.status == status
    assert len(seeded) == searches
    assert len(seeds) == min(searches, 1)
    assert all(theta == seeded[0] for theta in seeded)


# -- support reduction by the T-system atom counts ----------------------------------


def _reduction_polishes(monkeypatch) -> list:
    """Counts, in one list entry per call, the _polish_atoms calls made from
    inside _reduce_support: the trial polishes of the support reduction."""
    calls, inside = [], [False]
    polish, reduce = moments._polish_atoms, moments._reduce_support

    def counting_polish(*args):
        if inside[0]:
            calls[-1] += 1
        return polish(*args)

    def counting_reduce(*args):
        calls.append(0)
        inside[0] = True
        try:
            return reduce(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(moments, "_polish_atoms", counting_polish)
    monkeypatch.setattr(moments, "_reduce_support", counting_reduce)
    return calls


def test_boundary_functional_makes_no_trial_polish(monkeypatch):
    # two atoms over five members: 2k - 1 <= N, so by the Haar property no
    # representation with fewer atoms exists and none is tried
    calls = _reduction_polishes(monkeypatch)
    fam = power_family([0.0, 1.5, 2.5, 4.5, 6.0], interval(0.1, 1.2))
    L = MomentFunctional.from_measure(fam, [(0.441, 0.3802), (0.8751, 0.2243)])
    assert len(recover_atoms(L).atoms) == 2
    assert calls == [0]


def test_interior_corpus_functional_gets_its_lower_principal_representation():
    # moment_primal corpus call 10 ("5:3:ab"): three interior atoms on
    # [0.1, 1.2] have index 6 = N and omit b, the lower principal
    # representation; the polish trials alone end at 4 atoms here
    inst = perfbench_workloads().WORKLOADS["moment_primal"].corpus()[10]
    fam, s = inst.args["family"], inst.args["s"]
    assert inst.stratum == "5:3:ab" and fam.params == (0.0, 0.5, 1.0, 1.5, 3.5, 4.5)
    atoms = recover_atoms(MomentFunctional(tuple(s), fam), tol=1e-8).atoms
    assert len(atoms) == 3 and all(0.1 < x < 1.2 for x, _ in atoms)
    assert perfbench_checks().check_atoms(fam, atoms, s, 1e-8) is None


@pytest.mark.parametrize("fam", [
    monomial_family([0, 1, 2], interval(0.0, 1.0)),
    power_family([0.0, 0.5, 2.0, 3.5, 5.0], interval(0.1, 1.2)),
    power_family([0.0, 0.5, 1.5, 2.5, 3.0], halfline(0.0)),
], ids=["mono2", "power_ab", "power_halfline"])
def test_odd_interior_functional_gets_an_atom_at_a(fam):
    # N odd: the lower principal representation holds a and (N - 1)/2
    # interior atoms, ceil(N/2) in all, the fewest an interior functional
    # can have; the reduction solves for it from any larger representation
    N = fam.size
    lo = fam.domain.a
    pos = np.linspace(lo + 0.1, lo + 1.0, N // 2 + 2)
    wts = np.linspace(0.3, 0.8, len(pos))
    s = MomentFunctional.from_measure(fam, list(zip(pos, wts))).s
    abs_tol = 1e-8 * float(np.max(np.abs(s)))
    x, w, res = moments._reduce_support(fam, s, pos, wts, 0.0, *moments._polish_box(fam), abs_tol)
    assert len(x) == -(-N // 2) and x[0] == lo and np.all(x[1:] > lo) and np.all(w > 0)
    assert res <= abs_tol
    assert perfbench_checks().check_atoms(fam, list(zip(x, w)), s, 1e-8) is None


def test_witness_that_misses_tol_gets_every_trial_count():
    # the counting rules speak of representations of s: two atoms that miss
    # it are no proof that one cannot fit, so the trials start at count 1
    # and find the single atom s was made from
    fam = monomial_family([0, 1, 2, 3], interval(0.0, 1.0))
    s = MomentFunctional.from_measure(fam, [(0.5, 1.0)]).s
    pos, wts = np.array([0.3, 0.8]), np.array([0.5, 0.5])
    abs_tol = 1e-8 * float(np.max(np.abs(s)))
    res = moments._moment_res(fam, s, pos, wts)
    assert res > abs_tol
    x, w, res = moments._reduce_support(fam, s, pos, wts, res, *moments._polish_box(fam), abs_tol)
    assert res <= abs_tol
    np.testing.assert_allclose([x[0], w[0]], [0.5, 1.0], rtol=1e-6)
    assert len(x) == 1


def test_failed_square_solve_falls_back_to_the_polish_trials(monkeypatch):
    # with the square solve forced to fail, corpus call 10 gets the witness
    # of the polish trials over the counts the index rule leaves open, 3 and
    # 4 of its 6 atoms.  The trial at 3 finds the lower principal
    # representation, unique inside the cone, that the square solve finds,
    # and the trials from count 1 find the same measure
    inst = perfbench_workloads().WORKLOADS["moment_primal"].corpus()[10]
    L = MomentFunctional(tuple(inst.args["s"]), inst.args["family"])
    principal = recover_atoms(L).atoms
    monkeypatch.setattr(moments, "_lower_principal", lambda *args: None)
    calls = _reduction_polishes(monkeypatch)
    moments._last.clear()
    atoms = recover_atoms(L).atoms
    assert calls == [1]  # count 3; none below ceil(N/2) = 3
    assert len(atoms) == 3
    assert np.max(np.abs(AtomicMeasure(atoms).moments(L.family) - L.s)) <= 1e-8 * np.max(np.abs(L.s))
    np.testing.assert_allclose(atoms, principal, rtol=1e-9)
    monkeypatch.setattr(moments, "_theory_verdict", lambda *args: None)  # no counting rule
    moments._last.clear()
    np.testing.assert_allclose(recover_atoms(L).atoms, atoms, rtol=1e-9)
    assert calls == [1, 3]  # counts 1 and 2 miss before 3


def test_primal_corpus_needs_few_trial_polishes(monkeypatch):
    # the square solve settles every interior corpus functional, and the
    # boundary ones need no trial: at most 8 trial polishes a corpus pass
    calls = _reduction_polishes(monkeypatch)
    workloads = perfbench_workloads()
    for inst in workloads.WORKLOADS["moment_primal"].corpus():
        moments._last.clear()
        sparse_feasibility(MomentFunctional(tuple(inst.args["s"]), inst.args["family"]), tol=1e-8)
    assert sum(calls) <= 8


def test_primal_corpus_polishes_an_uncut_witness_once(monkeypatch):
    # the clustered stage polishes its atoms; where they meet tol and the
    # 1e-9 weight cut drops none, the support reduction gets them as they are
    polishes, inside = [], [False]
    polish, reduce = moments._polish_atoms, moments._reduce_support

    def counting_polish(*args):
        polishes.append(inside[0])
        return polish(*args)

    def counting_reduce(*args):
        inside[0] = True
        try:
            return reduce(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(moments, "_polish_atoms", counting_polish)
    monkeypatch.setattr(moments, "_reduce_support", counting_reduce)
    for inst in perfbench_workloads().WORKLOADS["moment_primal"].corpus():
        fam, s = inst.args["family"], np.asarray(inst.args["s"], dtype=float)
        moments._last.clear()
        polishes.clear()
        sparse_feasibility(MomentFunctional(tuple(s), fam), tol=1e-8)
        assert polishes.count(False) == 1, inst.stratum
        abs_tol = 1e-8 * float(np.max(np.abs(s)))
        _, wts, res = moments._shared(moments._clustered_atoms, fam, s, 2001, abs_tol)[:3]
        assert res <= abs_tol and np.all(wts > 1e-9 * np.sum(wts)), inst.stratum


def test_witness_that_misses_tol_is_polished_again(monkeypatch):
    # variance 0.24 - 0.5^2 < 0: no measure on [0, 1] has these moments, so
    # the whole-support polish misses tol and gets a second one before the
    # support reduction, as an uncut witness within tol does not
    fam = monomial_family([0, 1, 2], interval(0, 1))
    s = np.array([1.0, 0.5, 0.24])
    moments._last.clear()
    pos, _, res, support, _ = moments._shared(moments._clustered_atoms, fam, s, 2001, 1e-8)
    assert res > 1e-8 and len(pos) < len(support)
    polished = []
    polish = moments._polish_atoms
    monkeypatch.setattr(moments, "_polish_atoms", lambda *a: polished.append(len(a[2])) or polish(*a))
    monkeypatch.setattr(moments, "_reduce_support", lambda fam, s, pos, wts, res, *_: (pos, wts, res))
    _, _, res = moments._primal_atoms(fam, s, 2001, 1e-8)
    assert polished == [len(support), len(support)] and res > 1e-8


@pytest.mark.parametrize("name", ["moment_primal", "moment_dual"])
def test_witness_atoms_are_in_position_order(name):
    # recover_atoms, sparse_feasibility and `tsys moments-recover` print
    # their atoms in position order, whatever order the polish left them in
    for inst in perfbench_workloads().WORKLOADS[name].corpus():
        L = MomentFunctional(tuple(inst.args["s"]), inst.args["family"])
        v = sparse_feasibility(L, tol=1e-8)
        measures = [recover_atoms(L, tol=1e-8, assume_feasible=True)]
        if v.witness_measure is not None:
            measures.append(v.witness_measure)
        for m in measures:
            pos = [x for x, _ in m.atoms]
            assert pos == sorted(pos), (name, inst.stratum)


def _golub_welsch(m) -> tuple:
    """The p-node Gauss rule of the moments m_0..m_{2p-1} (mpf) of a measure
    on the line, by Golub & Welsch (1969): the Jacobi matrix from the
    Cholesky factor R of the Hankel matrix, its eigenvalues the nodes and the
    squared first components of its eigenvectors, times m_0, the weights."""
    p = len(m) // 2
    R = mpmath.zeros(p, p + 1)
    for i in range(p):
        R[i, i] = mpmath.sqrt(m[2 * i] - mpmath.fsum(R[k, i] ** 2 for k in range(i)))
        for j in range(i + 1, p + 1):
            R[i, j] = (m[i + j] - mpmath.fsum(R[k, i] * R[k, j] for k in range(i))) / R[i, i]
    J = mpmath.zeros(p, p)
    for j in range(p):
        J[j, j] = R[j, j + 1] / R[j, j] - (R[j - 1, j] / R[j - 1, j - 1] if j else 0)
        if j + 1 < p:
            J[j, j + 1] = J[j + 1, j] = R[j + 1, j + 1] / R[j, j]
    E, Q = mpmath.eigsy(J)
    return [E[j] for j in range(p)], [m[0] * Q[0, j] ** 2 for j in range(p)]


def _lower_principal_oracle(m, a) -> tuple:
    """The lower principal representation of the power moments m_0..m_n on
    [a, b]: the Gauss rule for odd n; for even n Gauss-Radau with a node at
    a, its other nodes the Gauss rule of (x - a) dmu, its weights from the
    Vandermonde system (Golub 1973).  Sorted by position."""
    if len(m) % 2 == 0:
        x, w = _golub_welsch(m)
    else:
        x = [mpmath.mpf(a)] + _golub_welsch([m[k + 1] - a * m[k] for k in range(len(m) - 1)])[0]
        V = mpmath.matrix([[xj ** k for xj in x] for k in range(len(x))])
        w = list(mpmath.lu_solve(V, mpmath.matrix(m[: len(x)])))
    order = sorted(range(len(x)), key=lambda j: x[j])
    return [float(x[j]) for j in order], [float(w[j]) for j in order]


@st.composite
def interior_monomial_functionals(draw):
    """Moments over 1, x, ..., x^n (n = 2..8) on [a, b] of N//2 + 1 atoms in
    the inner 90%, at least 5% of the width apart: index >= N + 1, inside
    the moment cone."""
    n = draw(st.integers(2, 8))
    a = draw(st.floats(-1.0, 0.5))
    width = draw(st.floats(0.5, 2.0))
    k = (n + 1) // 2 + 1
    pos = sorted(draw(st.lists(st.floats(a + 0.05 * width, a + 0.95 * width), min_size=k, max_size=k)))
    assume(np.all(np.diff(pos) >= 0.05 * width))
    wts = draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k))
    return monomial_family(list(range(n + 1)), interval(a, a + width)), pos, wts


@settings(max_examples=100, deadline=None, derandomize=True)
@given(interior_monomial_functionals())
def test_recovered_atoms_match_the_gauss_type_oracle(case):
    # the fewest-atom witness of an interior functional has ceil(N/2) atoms:
    # recover_atoms finds no more (fewer only where a sparser measure also
    # matches within tol); a witness of that count is the lower principal
    # representation where that is unique, for even N and, for odd N, where
    # it holds a (the other (N+1)/2-atom witnesses are canonical ones)
    fam, pos, wts = case
    a, width = fam.domain.a, fam.domain.b - fam.domain.a
    L = MomentFunctional.from_measure(fam, list(zip(pos, wts)))
    with mpmath.workdps(50):
        m = [mpmath.fsum(mpmath.mpf(w) * mpmath.mpf(x) ** j for x, w in zip(pos, wts))
             for j in range(fam.size)]
        x_ref, w_ref = _lower_principal_oracle(m, a)
    atoms = recover_atoms(L, tol=1e-8).atoms
    assert len(atoms) <= len(x_ref)
    if len(atoms) == len(x_ref) and (fam.size % 2 == 0 or atoms[0][0] == a):
        np.testing.assert_allclose([x for x, _ in atoms], x_ref, rtol=0, atol=1e-6 * width)
        np.testing.assert_allclose([w for _, w in atoms], w_ref, rtol=0, atol=1e-6 * sum(wts))
