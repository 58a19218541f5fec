import math

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
    MomentFunctional,
    _certificate_is_sound,
    caratheodory_prune,
)

from conftest import perfbench_checks


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


def test_caratheodory_prune_preserves_moments(rng):
    n1 = 4
    V = rng.standard_normal((n1, 12))
    w = np.abs(rng.standard_normal(12))
    target = V @ w
    w2 = caratheodory_prune(V, w, n1)
    assert np.sum(w2 > 0) <= n1
    assert np.allclose(V @ w2, target, atol=1e-10 * np.max(np.abs(target)))


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


def test_determinacy_hint_is_informational():
    fam = power_family([0, 1, 2, 3], halfline(0.0))
    L = MomentFunctional.from_measure(fam, [(0.5, 1.0)])
    v = sparse_feasibility(L)
    assert "muntz_sum" in v.determinacy_hint
    assert v.determinacy_hint["muntz_sum"] == 1.0 + 0.5 + 1 / 3


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
    # delta_0.8443 (weight 0.6339) over 1, x, ..., x^4 on [0, 1], moved off
    # the cone by 5.7e-6 of its scale along a random direction (draw 29 of
    # the near-boundary census in CHANGES.md): neither the grid certificate
    # nor a search gives a sound certificate, and the gap reported is |r|
    L = MomentFunctional((0.6338961233963336, 0.535209927423153, 0.45188583181613884,
                          0.38153914745116263, 0.32214422521709835),
                         monomial_family(list(range(5)), interval(0.0, 1.0)))
    v = sparse_feasibility(L)
    assert (v.status, v.route) == ("undecided", "none")
    r = moments._primal_atoms(L.family, L.s, 2001, 1e-8 * float(np.max(np.abs(L.s))))[4]
    assert v.gap == float(np.linalg.norm(r)) > 0


def test_each_stage_runs_only_where_the_one_before_fails(monkeypatch):
    # grid certificate -> engine -> each pattern's seeded start -> the full
    # multistart, counted by engine runs and L-BFGS-B starts; order 2 on an
    # interval has one pattern with a free zero, so the seeded pass makes
    # at most one start
    engine = _count_engine_runs(monkeypatch)
    starts = []
    original = extremal.minimize

    def counting(*args, **kwargs):
        starts.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(extremal, "minimize", counting)

    def stages(L):
        engine.clear()
        starts.clear()
        v = sparse_feasibility(L)
        assert (v.status, v.route) == ("infeasible", "dual")
        return len(engine), len(starts)

    # the grid certificate: no engine run, no search
    L = MomentFunctional((1.0 - 1e-7, 0.5, 0.25, 0.125, 0.0625),
                         power_family([0.0, 1.0, 2.0, 3.0, 4.0], interval(0.0, 1.0)))
    assert stages(L) == (0, 0)
    fam = power_family([0.0, 0.5, 3.0], interval(0.1, 1.2))
    # the seeded start from the engine's atom at 0.7
    L = perturbed_functional(fam, (0.7, 0.8), "interior_doubles")
    assert stages(L) == (1, 1)
    # an atom at the window's end is no seed, nor is p's minimum there: the
    # seeded pass makes no start and the full multistart finds the certificate
    L = perturbed_functional(fam, (1.2, 0.8), "interior_doubles")
    runs, made = stages(L)
    assert runs == 1 and made > 1


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


def test_polish_ends_once_settled(monkeypatch):
    # an ill-conditioned fit far inside tol lowers its cost by a few percent
    # a step: the polish ends there instead of running to max_nfev
    evaluations = []
    original = moments.least_squares

    def counting(fun, x0, **kwargs):
        count = [0]

        def counted(z):
            count[0] += 1
            return fun(z)

        try:
            return original(counted, x0, **kwargs)
        finally:
            evaluations.append(count[0])

    monkeypatch.setattr(moments, "least_squares", counting)
    fam = power_family([0.0, 0.5, 4.5, 5.0, 5.5, 7.0, 8.0], interval(0.1, 1.2))
    atoms = [(0.1301116528808206, 0.8447325299228715), (0.4118958010193691, 0.406148745114975),
             (0.4934852036395183, 0.48361652799181204)]
    L = MomentFunctional.from_measure(fam, atoms)
    m = recover_atoms(L)
    assert len(m.atoms) == 3
    assert np.max(np.abs(m.moments(fam) - L.s)) <= 1e-8 * np.max(np.abs(L.s))
    assert max(evaluations) < 400


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


def _count_engine_runs(monkeypatch) -> list:
    runs = []
    original = moments._primal_atoms

    def counting(*args):
        runs.append(args)
        return original(*args)

    monkeypatch.setattr(moments, "_primal_atoms", counting)
    return runs


def test_feasibility_then_recovery_runs_the_engine_once(monkeypatch):
    runs = _count_engine_runs(monkeypatch)
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
    runs = _count_engine_runs(monkeypatch)
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
    runs = _count_engine_runs(monkeypatch)
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
    for part in (first[0], first[1], first[3], first[4]):
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
    runs = _count_engine_runs(monkeypatch)
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
    _, _, _, xs, r = moments._primal_atoms(fam, s, 2001, 1e-8 * float(np.max(np.abs(s))))
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
    _, _, _, xs, r = moments._primal_atoms(fam, s, 2001, 1e-8 * float(np.max(np.abs(s))))
    _assert_matches_full_grid_nnls(fam.eval_grid(xs).T, s, r)


def test_working_set_nnls_edge_cases():
    fam = power_family([0.0, 0.5, 3.0], interval(0.1, 1.2))
    xs = moments._primal_grid(fam, 2001)
    A = fam.eval_grid(xs).T
    work = np.arange(0, len(xs) - 1, 10)  # every 10th column but the last
    # s = 0: no weights, r = 0
    w, r = moments._working_set_nnls(A, np.zeros(3), work)
    assert not np.any(w) and not np.any(r)
    # an atom exactly at the window's end, outside the working columns
    s = MomentFunctional.from_measure(fam, [(1.2, 0.8)]).s
    w, r = moments._working_set_nnls(A, s, work)
    _assert_matches_full_grid_nnls(A, s, r)
    assert float(np.linalg.norm(r)) <= 1e-13 * float(np.linalg.norm(s))
    # ... and moved off the cone, through the engine
    s = perturbed_functional(fam, (1.2, 0.8), "interior_doubles").s
    _, _, _, xs2, r = moments._primal_atoms(fam, s, 2001, 1e-8 * float(np.max(np.abs(s))))
    _assert_matches_full_grid_nnls(fam.eval_grid(xs2).T, s, r)
    # a zero column, inside and outside the working set
    for j in (0, 5):
        Az = A.copy()
        Az[:, j] = 0.0
        w, r = moments._working_set_nnls(Az, s, work)
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
    _, _, _, xs, r = moments._primal_atoms(fam, s, 2001, 1e-8 * float(np.max(s)))
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
    _, _, res, xs, r = moments._primal_atoms(fam, s, 2001, 1e-8 * float(np.max(s)))
    assert res <= 1e-8 * float(np.max(s))
    grid = len(moments._primal_grid(fam, 2001))
    assert columns and max(columns) < grid // 4
    A = fam.eval_grid(xs).T
    assert np.all((A / np.linalg.norm(A, axis=0)).T @ r <= _kkt_tol(s))


def test_dual_seeds_one_per_basin():
    fam = power_family([0.0, 0.5, 3.0], interval(0.1, 1.2))
    # p's only basin holds the window's end: it is a seed
    s = perturbed_functional(fam, (1.2, 0.8), "interior_doubles").s
    _, _, _, xs, r = moments._primal_atoms(fam, s, 2001, 1e-8 * float(np.max(np.abs(s))))
    seeds = moments._dual_seeds(fam, r, xs)
    assert len(seeds) == 1 and abs(seeds[0] - 1.2) < 1e-3
    # two atoms, two basins: one seed at each
    fam = power_family([0.0, 0.5, 1.5, 2.5, 4.0], interval(0.1, 1.2))
    L = MomentFunctional.from_measure(fam, [(0.3, 0.5), (0.9, 0.7)])
    s = L.s.copy()
    s[0] -= 1e-6 * float(np.max(np.abs(s)))
    _, _, _, xs, r = moments._primal_atoms(fam, s, 2001, 1e-8 * float(np.max(np.abs(s))))
    seeds = sorted(moments._dual_seeds(fam, r, xs))
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
