import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tsystems import (
    FamilySpec,
    NodeSet,
    SparsePoly,
    ZeroConfig,
    count_zeros,
    custom_family,
    det,
    exponential_family,
    halfline,
    index_of,
    interval,
    monomial_family,
    poly_from_zeros,
    power_family,
    rational_family,
)
from tsystems import zeros
from tsystems.colloc import node_rows
from tsystems.errors import IndexTooLarge, InvariantViolation, NonDifferentiable, ZeroPolynomial
from tsystems.zeros import NODAL, NON_NODAL, _running_max

from conftest import perfbench_workloads

SEVEN_TERM_EXPS = [0, 2, 3, 5, 8, 11, 13]
SEVEN_TERM_COEFFS = np.array(
    [
        23_485_900_800,
        -112_347_781_120,
        112_945_898_496,
        -26_336_028_160,
        2_421_354_616,
        -184_325_420,
        14_980_788,
    ],
    dtype=float,
)


def test_index_of_interior_and_endpoints():
    dom = interval(0, 1)
    assert index_of(ZeroConfig(((0.5, 1, NON_NODAL),), dom)) == 2
    assert index_of(ZeroConfig(((0.0, 1, NODAL), (1.0, 1, NODAL)), dom)) == 2
    assert index_of(ZeroConfig((), dom)) == 0
    # multiplicity m interior contributes max(2, m)
    assert index_of(ZeroConfig(((0.5, 4, NON_NODAL),), dom)) == 4


def test_poly_from_zeros_double_zero_quadratic():
    fam = monomial_family([0, 1, 2], interval(0, 1))
    p = poly_from_zeros(fam, NodeSet.of((0.5, 2)))
    ref = np.array([0.25, -1.0, 1.0])  # (x - 0.5)^2
    assert np.allclose(p.a / p.a[2], ref, atol=1e-13)
    assert min(p(np.linspace(0, 1, 200))) >= -1e-15


def test_poly_from_zeros_endpoint_linear():
    fam = monomial_family([0, 1], interval(0.25, 2.0))
    p = poly_from_zeros(fam, NodeSet.of((0.25, 1)))
    assert np.allclose(p.a / p.a[1], [-0.25, 1.0])
    assert p(1.0) > 0


def test_poly_from_zeros_seven_term_worked_example():
    fam = power_family(SEVEN_TERM_EXPS, halfline(0.0))
    p = poly_from_zeros(fam, NodeSet.of((1.0, 2), (2.0, 4)), check_certificate=False)
    scaled = p.a * (SEVEN_TERM_COEFFS[-1] / p.a[-1])
    assert np.max(np.abs(scaled - SEVEN_TERM_COEFFS) / np.abs(SEVEN_TERM_COEFFS)) < 1e-9


def test_poly_from_zeros_odd_interior_rejected():
    fam = monomial_family([0, 1, 2], interval(0, 1))
    with pytest.raises(IndexTooLarge):
        poly_from_zeros(fam, NodeSet.of((0.3, 1), (0.7, 1)), sign="auto_nonneg")


def test_poly_from_zeros_raw_allows_nodal():
    fam = monomial_family([0, 1, 2], interval(0, 1))
    p = poly_from_zeros(fam, NodeSet.of(0.3, 0.7), sign="raw")
    assert abs(p(0.3)) < 1e-14 and abs(p(0.7)) < 1e-14


@pytest.mark.parametrize("sign", ["auto_nonneg", "raw"])
def test_poly_from_zeros_degenerate_nodes_raise(sign):
    # f'(0) of (1, x^2, x^4) is a zero row, so no polynomial has exactly
    # this zero set: the cofactor vector is zero, not an arbitrary direction
    fam = monomial_family([0, 2, 4], interval(-1, 1))
    with pytest.raises(InvariantViolation):
        poly_from_zeros(fam, NodeSet.of((0.0, 2)), sign=sign, check_certificate=False)


@st.composite
def zero_placements(draw):
    """A power family of order n = 2..7 on [0.1, 1.2] or [0, inf) with an
    index-n zero set: n // 2 separated interior doubles, plus a simple zero
    at the left end when n is odd."""
    n = draw(st.integers(2, 7))
    halves = draw(st.lists(st.integers(1, 3 * n), min_size=n, max_size=n, unique=True))
    on_halfline = draw(st.booleans())
    fam = power_family([0.0] + sorted(0.5 * h for h in halves),
                       halfline(0.0) if on_halfline else interval(0.1, 1.2))
    lo, hi = (0.05, 4.0) if on_halfline else (0.12, 1.18)
    m = n // 2
    # one double per m-th of [lo, hi], kept off the cell ends
    cells = draw(st.lists(st.floats(0.15, 0.85), min_size=m, max_size=m))
    nodes = [(lo + (hi - lo) * (j + u) / m, 2) for j, u in enumerate(cells)]
    if n % 2:
        nodes.append((fam.domain.a, 1))
    return fam, NodeSet.of(*nodes), draw(st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(zero_placements())
def test_poly_from_zeros_orientation(case):
    fam, nodes, u = case
    lo, hi = fam.domain.window()
    # auto_nonneg: p >= 0 up to the rounding of unit max-norm coefficients
    p = poly_from_zeros(fam, nodes, check_certificate=False)
    F = fam.eval_grid(np.linspace(lo, hi, 2001))
    assert np.all(F @ p.a >= -np.finfo(float).eps * np.abs(F).sum(axis=1))
    # raw: p(x) has the sign of the bordered determinant det([f(x); B])
    x = lo + u * (hi - lo)
    assume(min(abs(x - t) for t in nodes.points) > 0.02)
    q = poly_from_zeros(fam, nodes, sign="raw", check_certificate=False)
    d = det(np.vstack([fam.eval_grid([x]), node_rows(fam, nodes.nodes)]))
    assert np.sign(q(x)) == np.sign(d) != 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_running_max_is_the_window_max(data):
    # every window size, K >= len - 1 (one window spans the array) included
    n = data.draw(st.integers(1, 80))
    K = data.draw(st.integers(0, n + 3))
    values = st.floats(-1e300, 1e300) | st.sampled_from([-np.inf, np.inf])
    a = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    brute = np.array([a[max(i - K, 0) : i + K + 1].max() for i in range(n)])
    assert np.array_equal(_running_max(a, K), brute)


def test_count_zeros_double_zero():
    fam = monomial_family([0, 1, 2], interval(0, 1))
    p = SparsePoly((0.25, -1.0, 1.0), fam)  # (x - 0.5)^2
    cfg = count_zeros(p)
    assert len(cfg.zeros) == 1
    z = cfg.zeros[0]
    assert abs(z[0] - 0.5) < 1e-10 and z[1] == 2 and z[2] == NON_NODAL


def test_count_zeros_endpoint_nodal():
    fam = monomial_family([0, 1, 2], interval(0, 1))
    p = SparsePoly((0.0, 1.0, -1.0), fam)  # x (1 - x)
    cfg = count_zeros(p)
    assert [z[2] for z in cfg.zeros] == [NODAL, NODAL]
    assert np.allclose([z[0] for z in cfg.zeros], [0.0, 1.0], atol=1e-12)


def test_count_zeros_seven_term_polynomial():
    fam = power_family(SEVEN_TERM_EXPS, halfline(0.0))
    p = SparsePoly(tuple(SEVEN_TERM_COEFFS), fam)
    cfg = count_zeros(p, window=(0.0, 5.0))
    assert [(round(z[0], 8), z[1]) for z in cfg.zeros] == [(1.0, 2), (2.0, 4)]
    assert all(z[2] == NON_NODAL for z in cfg.zeros)


def test_count_zeros_keeps_zeros_on_grid_points():
    # (x - 1)(x - 2)(x + 3): on these windows 1 and 2 are grid points, where
    # f reads exactly 0 and has no sign change between neighbours
    fam = power_family([0, 1, 2, 3], halfline(0.0))
    p = SparsePoly((6.0, -7.0, 0.0, 1.0), fam)
    for window in ((0.0, 10.0), (0.5, 2.5), (0.0, 3.0)):
        cfg = count_zeros(p, window=window)
        assert [(z[0], z[1], z[2]) for z in cfg.zeros] == [(1.0, 1, NODAL), (2.0, 1, NODAL)], window


def test_count_zeros_zero_polynomial_raises():
    fam = monomial_family([0, 1], interval(0, 1))
    with pytest.raises(ZeroPolynomial):
        count_zeros(SparsePoly((0.0, 0.0), fam))


def test_round_trip_random_node_sets(rng):
    # poly_from_zeros -> count_zeros recovers positions/multiplicities/kinds
    for _ in range(12):
        n = int(rng.integers(2, 8))
        exps = [0] + sorted(rng.choice(np.arange(1, 3 * n), size=n, replace=False).tolist())
        fam = power_family(exps, interval(0.1, 2.0))
        m = n // 2
        if m == 0:
            continue
        pts = np.sort(rng.uniform(0.25, 1.9, m))
        while len(pts) > 1 and np.min(np.diff(pts)) < 0.12:
            pts = np.sort(rng.uniform(0.25, 1.9, m))
        nodes = [(float(t), 2) for t in pts]
        rest = n - 2 * m
        if rest == 1:
            nodes = [(0.1, 1)] + nodes
        p = poly_from_zeros(fam, NodeSet.of(*nodes), check_certificate=False)
        probe = np.linspace(0.1, 2.0, 2000)
        vals = p(probe)
        assert vals.min() >= -1e-10 * np.max(np.abs(vals))
        cfg = count_zeros(p)
        got = {round(z[0], 6): (z[1], z[2]) for z in cfg.zeros}
        for t, mult in nodes:
            match = [v for k, v in got.items() if abs(k - t) < 1e-6]
            assert match, f"zero at {t} not recovered (got {got})"
            mm, kind = match[0]
            assert mm == mult
            if t > 0.1 and mult % 2 == 0:
                assert kind == NON_NODAL
        assert len(cfg.zeros) == len(nodes)


def test_zero_count_bound_random_vectors(rng):
    fam = power_family([0, 1, 2, 4, 6], interval(0.2, 1.5))
    n = fam.order
    for _ in range(40):
        coeffs = rng.standard_normal(fam.size)
        p = SparsePoly(tuple(coeffs), fam)
        cfg = count_zeros(p)  # raises InvariantViolation on 2k + l > n
        k = sum(1 for z in cfg.zeros if z[2] == NON_NODAL)
        l = sum(1 for z in cfg.zeros if z[2] == NODAL)
        assert 2 * k + l <= n


def test_sparse_poly_json_round_trip():
    fam = monomial_family([0, 1, 2], interval(0, 1))
    p = SparsePoly((1.0, -2.0, 1.0), fam)
    q = SparsePoly.from_dict(p.to_dict())
    assert q == p


def test_count_zeros_at_nondifferentiable_endpoint():
    # x^0.5 has no derivative at 0: the zero there is a simple endpoint zero
    fam = power_family([0, 0.5, 2.5], halfline(0.0))
    cfg = count_zeros(SparsePoly((0.0, 1.0, -0.1), fam), window=(0.0, 10.0))
    assert [(z[0], z[1], z[2]) for z in cfg.zeros][0] == (0.0, 1, NODAL)
    assert abs(cfg.zeros[1][0] - 10**0.5) < 1e-9


@pytest.mark.parametrize("exps,other", [
    ((0.0, 0.5, 1.0, 1.5, 2.5), 1.0),
    ((0.0, 0.5, 1.0, 2.0, 2.5), 0.8),
    ((0.0, 0.5, 1.0, 2.0, 3.0), 0.8),
])
def test_zero_just_inside_window_end_is_classified(exps, other):
    # a double zero 2e-8 inside the window's end is non-nodal, a simple zero
    # there nodal: f read at the endpoint itself is at rounding level and
    # carries no sign
    fam = power_family(list(exps), interval(0.1, 1.2))
    r = 1.2 - 2e-8
    double = poly_from_zeros(fam, NodeSet.of((other, 2), (r, 2)), check_certificate=False)
    assert [(z[1], z[2]) for z in count_zeros(double).zeros] == [(2, NON_NODAL), (2, NON_NODAL)]
    simple = poly_from_zeros(fam, NodeSet.of((0.1, 1), (other, 2), (r, 1)), sign="raw",
                             check_certificate=False)
    last = count_zeros(simple).zeros[-1]
    assert abs(last[0] - r) < 1e-9 and (last[1], last[2]) == (1, NODAL)


def test_count_zeros_keeps_an_interior_double_zero_at_the_rounding_floor():
    # three double zeros, one 1.83e-8 inside the window's end: the polish of
    # the interior one lands where |f| = 8.7e-17, below the rounding error
    # eps * sum |a_i f_i| = 4.3e-16 of evaluating f but above tol * local
    fam = power_family([0, 2, 3, 3.5, 4, 5.5, 8], interval(0.1, 1.2))
    nodes = [(0.7254, 2), (0.9566, 2), (1.2 - 1.83e-8, 2)]
    p = poly_from_zeros(fam, NodeSet.of(*nodes), check_certificate=False)
    cfg = count_zeros(p)
    assert [(z[1], z[2]) for z in cfg.zeros] == [(2, NON_NODAL)] * 3
    assert np.allclose(cfg.points, [t for t, _ in nodes], rtol=0, atol=1e-7)


def test_zero_polishes_stop_at_the_rounding_floor_on_the_desk_corpus(monkeypatch):
    # basis evaluations (FamilySpec.eval_grid calls) over the benchmark's desk
    # zeros:* calls, the polishes in lockstep: 823 while they swap between
    # neighbouring floats up to their 60-step cap, 198 once they stop at the
    # rounding floor.  With one point and order a call the same polishes took
    # 4,074 and 1,332 one-point evaluations.
    wl = perfbench_workloads().WORKLOADS["desk"]
    calls = []
    real = FamilySpec.eval_grid
    monkeypatch.setattr(FamilySpec, "eval_grid", lambda self, xs, order=0: calls.append(1) or real(self, xs, order))
    for inst in wl.corpus():
        if inst.stratum.startswith("zeros:"):
            wl.call(inst)
    assert 0 < len(calls) <= 210, len(calls)


def test_sign_changes_are_refined_by_zeroin(monkeypatch):
    # five simple zeros: zeroin refines every sign change of the scan, all in
    # lockstep, in 4 rounds; the whole count takes 22 basis evaluations.
    # Bisection, one halving a round down to the last bit, would take about
    # 50 rounds; one point and order a call took 170 one-point evaluations.
    fam = monomial_family(list(range(6)), interval(-1, 1))
    zs = (-0.70031, -0.30017, 0.10023, 0.45041, 0.80013)
    p = poly_from_zeros(fam, NodeSet.of(*zs), sign="raw", check_certificate=False)
    calls, rounds = [], []
    real = FamilySpec.eval_grid
    monkeypatch.setattr(FamilySpec, "eval_grid", lambda self, xs, order=0: calls.append(1) or real(self, xs, order))
    real_zeroin = zeros._zeroin
    monkeypatch.setattr(zeros, "_zeroin",
                        lambda f, brackets: real_zeroin(lambda ts: rounds.append(len(ts)) or f(ts), brackets))
    cfg = count_zeros(p)
    assert [(z[1], z[2]) for z in cfg.zeros] == [(1, NODAL)] * 5
    assert np.allclose(cfg.points, zs, rtol=0, atol=1e-15)
    assert rounds[0] == 5 and len(rounds) <= 6, rounds
    assert 0 < len(calls) <= 24, len(calls)


def test_count_zeros_on_the_desk_corpus_takes_few_basis_evaluations(monkeypatch):
    # count_zeros alone over the desk zeros:* calls: 741 eval_grid calls with
    # one point and one derivative order a call, 184 in lockstep
    wl = perfbench_workloads().WORKLOADS["desk"]
    polys = [poly_from_zeros(inst.args["family"], NodeSet.of(*inst.args["nodes"]), check_certificate=False)
             for inst in wl.corpus() if inst.stratum.startswith("zeros:")]
    calls = []
    real = FamilySpec.eval_grid
    monkeypatch.setattr(FamilySpec, "eval_grid", lambda self, xs, order=0: calls.append(1) or real(self, xs, order))
    for p in polys:
        count_zeros(p)
    assert len(polys) == 14 and 0 < len(calls) <= 200, len(calls)


def _custom_exp_family():
    return custom_family([lambda x, k, c=c: c**k * math.exp(c * x) for c in (-1.0, 0.5, 2.0)],
                         interval(-1, 1), name="exp")


@pytest.mark.parametrize("fam", [
    monomial_family(list(range(7)), interval(-1, 1)),
    power_family([0, 0.5, 1.5, 2.5, 4, 5, 6.5], interval(0.1, 1.2)),
    power_family([0, 0.5, 1, 2.5, 3], halfline(0.0)),
    exponential_family([-1.0, -0.5, 0.0, 0.5, 1.0], halfline(0.0)),
    rational_family([1.0, 2.0, 3.5, 5.0], interval(0, 3)),
    _custom_exp_family(),
], ids=["monomial", "power", "power_halfline", "exponential", "rational", "custom"])
def test_lockstep_values_are_the_one_point_calls_bitwise(fam):
    # a lockstep step evaluates all its points and orders in one eval_grid;
    # each value is its row's own (1 x n) @ a product, equal bit for bit to
    # f(x, order), and each rounding error to the one-point formula
    rng = np.random.default_rng(17)
    lo, hi = fam.domain.window()
    xs = [lo, hi] + rng.uniform(lo, hi, 40).tolist()
    orders = [1] + rng.integers(0, 4, len(xs) - 1).tolist()  # a derivative at the window's start
    f = SparsePoly(tuple(rng.standard_normal(fam.size)), fam)
    missing = 0
    for order in (orders, 0, 2):
        vals, rows = zeros._values(f, xs, order)
        for j, x in enumerate(xs):
            k = order[j] if isinstance(order, list) else order
            try:
                want = f(x, k)
            except NonDifferentiable:  # x^0.5 at 0: only that point reads None
                assert x == 0.0 and k >= 1 and vals[j] is None
                missing += 1
                continue
            assert np.float64(vals[j]).tobytes() == np.float64(want).tobytes(), (x, k)
            assert rows[j].tobytes() == fam.eval_grid([x], k)[0].tobytes()
    assert missing == (2 if fam.params == (0, 0.5, 1, 2.5, 3) else 0)
    vals, rows = zeros._values(f, xs, 0)
    eps = np.finfo(float).eps
    want = [eps * float(np.abs(fam.eval_grid(np.array([x]))[0] * f.a).sum()) for x in xs]
    assert zeros._rounding(f, rows) == want
