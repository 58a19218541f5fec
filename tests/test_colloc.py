import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsystems import (
    FamilySpec,
    NodeSet,
    certify,
    confluent_matrix,
    det,
    ect_canonical_weights,
    exponential_family,
    halfline,
    interval,
    krein_matrix,
    monomial_family,
    power_family,
    rational_family,
    real_line,
    reduced_system,
    wronskian,
)
from tsystems import colloc
from tsystems.colloc import det_scale, null_vector, node_rows
from tsystems.errors import DimensionMismatch, DomainViolation

from conftest import perfbench_workloads


def test_krein_matrix_vandermonde():
    fam = monomial_family([0, 1, 2], real_line())
    K = krein_matrix(fam, NodeSet.of(0.0, 1.0, 2.0))
    assert np.allclose(K, [[1, 0, 0], [1, 1, 1], [1, 2, 4]])
    # Vandermonde product (1)(2)(1) = 2
    assert abs(det(K) - 2.0) < 1e-14


def test_krein_single_node():
    fam = exponential_family([1.0], real_line())
    K = krein_matrix(fam, NodeSet.of(0.7))
    assert K.shape == (1, 1) and np.isclose(K[0, 0], math.exp(0.7))


def test_krein_rejects_coincident_nodes():
    with pytest.raises(DimensionMismatch):
        NodeSet.of(1.0, 1.0)


def test_confluent_matrix_rows():
    fam = monomial_family([0, 1, 2], real_line())
    M = confluent_matrix(fam, NodeSet.of((1.0, 2), (3.0, 1)))
    assert np.allclose(M, [[1, 1, 1], [0, 1, 2], [1, 3, 9]])


def test_confluent_equals_krein_for_simple_nodes():
    fam = power_family([0, 2, 3], interval(0.5, 2))
    ns = NodeSet.of(0.6, 1.0, 1.7)
    assert np.allclose(confluent_matrix(fam, ns), krein_matrix(fam, ns))


def test_wronskian_monomials_factorials():
    fam = monomial_family([0, 1, 2, 3], real_line())
    for x in (0.0, 0.5, -0.5):
        assert wronskian(fam, 3, x) == float(math.factorial(1) * math.factorial(2) * math.factorial(3))


def test_wronskian_exponentials_closed_form():
    rates = [-1.0, 0.5, 2.0]
    fam = exponential_family(rates, real_line())
    x = 0.37
    expect = math.exp(sum(rates) * x)
    for i in range(3):
        for j in range(i + 1, 3):
            expect *= rates[j] - rates[i]
    assert abs(wronskian(fam, 2, x) - expect) < 1e-12 * abs(expect)


def test_wronskian_k0():
    fam = exponential_family([0.0, 1.0], real_line())
    assert np.isclose(wronskian(fam, 0, 1.3), 1.0)


def test_det_dimension_cap():
    with pytest.raises(DimensionMismatch):
        det(np.eye(13))


def test_row_swap_antisymmetry(rng):
    fam = monomial_family([0, 1, 2, 3], interval(-1, 1))
    for _ in range(5):
        x = np.sort(rng.uniform(-1, 1, 4))
        M = fam.eval_grid(x)
        d = det(M)
        M2 = M.copy()
        M2[[0, 2]] = M2[[2, 0]]
        assert abs(det(M2) + d) < 1e-12 * max(abs(d), det_scale(M))


def test_confluent_limit_convergence(rng):
    # det with nodes (x,1),(x+h,1) scaled by 1/h approaches the confluent det
    fam = power_family([0, 1, 2, 4], interval(0.3, 2.0))
    x0, x1 = 0.7, 1.6
    target = det(
        np.vstack(
            [
                fam.eval_grid(np.array([x0]))[0],
                fam.eval_grid(np.array([x0]), 1)[0],
                fam.eval_grid(np.array([x1]))[0],
                fam.eval_grid(np.array([x1]), 1)[0],
            ]
        )
    )
    errs = []
    hs = [1e-2, 1e-3, 1e-4]
    for h in hs:
        M = fam.eval_grid(np.array([x0, x0 + h, x1, x1 + h]))
        errs.append(abs(det(M) / h**2 - target))
    rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert rate >= 0.9


def test_certify_fixtures():
    assert certify(power_family([0, 2, 3], interval(0.5, 2)), "ECT").level == "ECT"
    c = certify(monomial_family([0, 1, 3], interval(0, 1)), "ET", grid=101, budget=3000)
    assert c.level == "none"
    (pt, mult), = c.counterexample.nodes
    assert pt == 0.0 and mult == 3
    assert certify(exponential_family([-1, 0, 2], interval(-1, 1)), "ECT").level == "ECT"
    assert certify(monomial_family([0, 1, 2, 3], interval(-2, 5)), "ECT").level == "ECT"


def test_certify_t_counterexample_is_sound():
    # {x, x^2} on [-1, 1] is not a T-system (the members share the zero x = 0)
    from tsystems.colloc import vanishes

    fam = monomial_family([1, 2], interval(-1, 1))
    c = certify(fam, "T", grid=101, budget=5000)
    assert c.level == "none"
    pts = np.array([p for p, _ in c.counterexample.nodes])
    assert vanishes(fam.eval_grid(pts))


def _increasing(draw, first, n):
    """first, then n steps of 0.3 to 1.5: params well apart for a small grid."""
    steps = draw(st.lists(st.floats(0.3, 1.5), min_size=n, max_size=n))
    return [first + sum(steps[:k]) for k in range(n + 1)]


@st.composite
def theory_cases(draw):
    """A family of one case the theorems cover, a target and a window."""
    case = draw(st.sampled_from(["descartes", "polynomial", "exponential", "cauchy", "gap_at_0",
                                 "descartes_at_0"]))
    n = draw(st.integers(1, 3))
    lo = draw(st.floats(0.2, 1.0) if case == "descartes" else st.floats(-1.5, 1.0))
    hi = lo + draw(st.floats(0.5, 2.5))
    if case == "descartes":
        fam = power_family(_increasing(draw, draw(st.floats(-1.0, 1.0)), n), interval(lo, hi))
    elif case == "polynomial":
        fam = monomial_family(list(range(n + 1)), interval(lo, hi))
    elif case == "exponential":
        fam = exponential_family(_increasing(draw, draw(st.floats(-2.0, 1.0)), n), interval(lo, hi))
    elif case == "cauchy":
        fam = rational_family(_increasing(draw, -lo + draw(st.floats(0.3, 1.0)), n), interval(lo, hi))
    elif case == "descartes_at_0":
        # 0 = p_0 < p_1 < ... on [0, b]: T, the node 0's row being (1, 0, ..., 0)
        fam = power_family([0.0] + _increasing(draw, draw(st.floats(0.3, 1.5)), n - 1),
                           interval(0.0, hi - lo))
    else:
        # natural exponents with a gap on [0, b]: refuted for ET and ECT at 0
        degrees = [0] + sorted(draw(st.sets(st.integers(1, n + 2), min_size=n, max_size=n)))
        if degrees == list(range(n + 1)):
            degrees[-1] += 1
        fam = monomial_family(degrees, interval(0.0, hi - lo))
    targets = {"gap_at_0": ["ET", "ECT"], "descartes_at_0": ["T"]}.get(case, ["T", "ET", "ECT"])
    return fam, draw(st.sampled_from(targets))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(theory_cases())
def test_theory_route_agrees_with_grid_scan(case):
    fam, target = case
    cached = len(colloc._CERT_CACHE)
    theory = certify(fam, target)
    assert theory.route == "theory" and len(colloc._CERT_CACHE) == cached
    grid = colloc._certify_grid(fam, target, 41, 2000, 0, fam.domain.window())
    assert grid.route == "grid"
    assert (theory.level, theory.canonical_sign) == (grid.level, grid.canonical_sign)
    if theory:
        assert theory.evidence > 0 and theory.exhaustive and theory.counterexample is None
    else:
        assert theory.counterexample.nodes == ((0.0, fam.size),)


def test_power_family_from_0_is_a_t_system_by_theory():
    # the half-line family of the moment benchmark: T by the theorem, with
    # no grid work; ET and ECT stay refuted at the node 0
    fam = power_family([0, 0.5, 3.5, 4.5], halfline(0.0))
    cert = certify(fam, "T")
    assert (cert.level, cert.route, cert.exhaustive) == ("T", "theory", True)
    for target in ("ET", "ECT"):
        cert = certify(fam, target)
        assert (cert.level, cert.route) == ("none", "theory")
        assert cert.counterexample.nodes == ((0.0, 4),)


def test_ect_refutation_bisects_the_signed_wronskian():
    # the canonical sign flips x^3 on [-1, 0.5], so the scan sees -W(1, x, x^3)
    # = -6x change sign at 0; the bisection must refine that same function
    cert = certify(monomial_family([0, 1, 3], interval(-1, 0.5)), "ECT", grid=200)
    assert cert.level == "none" and cert.canonical_sign[2] == -1
    ((x, m),) = cert.counterexample.nodes
    assert m == 3 and abs(x) <= 1e-12


def test_theory_route_needs_increasing_params_and_a_positive_determinant():
    # FamilySpec skips validation; with exponents (2, 0, 1), W(f_0, f_1) = -2x
    fam = FamilySpec("power", (2.0, 0.0, 1.0), interval(0.5, 2.0))
    cert = certify(fam, "ECT")
    assert cert.route == "grid" and cert.level == "none"
    # x^600 underflows on [0.1, 0.2]: the ordered determinant is 0 in doubles
    fam = power_family([0, 300, 600], interval(0.1, 0.2))
    assert certify(fam, "T", grid=41, budget=2000).route == "grid"


def test_theory_route_needs_window_inside_domain():
    # the interior points of (-0.1, 1) lie in [0, 1], its left end does not
    fam = exponential_family([-1.0, 0.0, 2.0], interval(0.0, 1.0))
    assert colloc._certify_theory(fam, "T", 201, 0, (-0.1, 1.0)) is None
    with pytest.raises(DomainViolation):
        certify(fam, "T", window=(-0.1, 1.0))
    assert certify(fam, "T", window=(0.1, 1.0)).route == "theory"


def test_certificate_serialization():
    c = certify(monomial_family([0, 1], interval(0, 1)), "T", grid=51)
    d = c.to_dict()
    assert d["level"] == "T" and d["grid_points"] == 51


def test_ect_starred_determinants_positive(rng):
    # for a certified ECT family every ordered starred determinant is positive
    fam = power_family([0, 1, 3], interval(0.5, 2))
    cert = certify(fam, "ECT")
    assert cert.level == "ECT"
    sign = np.array(cert.canonical_sign)
    for _ in range(30):
        pts = np.sort(rng.choice(np.linspace(0.5, 2, 41), size=3, replace=True))
        rows = []
        prev, k = None, 0
        for x in pts:
            k = k + 1 if x == prev else 0
            prev = x
            rows.append(fam.eval_grid(np.array([x]), k)[0] * sign)
        assert det(np.array(rows)) > 0


def _unit_cofactors(B):
    """Signed cofactors along the first row of [r; B], at unit max-norm."""
    cof = np.array([(-1.0) ** i * det(np.delete(B, i, axis=1)) for i in range(B.shape[1])])
    return cof / np.max(np.abs(cof))


def test_null_vector_matches_cofactors():
    # the sign too: r.null_vector(B) has the sign of det([r; B])
    fam = power_family([0, 1, 2, 4], interval(0.3, 2.0))
    B = node_rows(fam, ((0.5, 2), (1.5, 1)))
    assert np.max(np.abs(null_vector(B) - _unit_cofactors(B))) < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_null_vector_random_cofactors(n):
    rng = np.random.default_rng(n)
    for _ in range(25):
        B = rng.standard_normal((n, n + 1)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        assert np.max(np.abs(null_vector(B) - _unit_cofactors(B))) < 1e-14


def test_null_vector_rank_deficient_is_zero():
    # f'(0) of (1, x^2, x^4) is a zero row: every cofactor vanishes
    fam = monomial_family([0, 2, 4], interval(-1, 1))
    assert not null_vector(node_rows(fam, ((0.0, 2),))).any()
    assert not null_vector(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])).any()


def test_infinite_entries_eliminate_quietly_as_in_a_stack():
    # inf / inf and inf - inf in the elimination make NaNs; one matrix makes
    # them as a stack does, without a RuntimeWarning (an error in this suite)
    mats = [np.array([[np.inf, np.inf]]), np.array([[np.inf, 0.0]]),
            np.array([[1.0, np.inf, 2.0], [np.inf, 3.0, 4.0]]),
            np.array([[-np.inf, 1.0, 2.0], [3.0, 4.0, np.inf]])]
    for B in mats:
        assert _same_bits(null_vector(B), null_vector(B[None])[0])
    assert np.isnan(null_vector(mats[0])).all()
    for M in ([[1.0, 1.0], [np.inf, np.inf]], [[1.0, 0.0], [np.inf, 0.0]], [[0.0, 1.0], [np.inf, 0.0]]):
        assert _same_bits(det(np.array(M)), det(np.array([M]))[0])
    assert math.isnan(det(np.array([[1.0, 0.0], [np.inf, 0.0]])))


def _loop_null_vector(B):
    """Reference: the one-matrix full-pivot elimination by explicit row and
    column swaps, tracking the determinant's sign as it goes."""
    B = np.array(B, dtype=np.longdouble)
    nr, nc = B.shape
    perm = list(range(nc))
    sign = -1.0 if nr % 2 else 1.0
    for k in range(nr):
        i, j = divmod(int(abs(B[k:, k:]).argmax()), nc - k)
        i += k
        j += k
        piv = B[i, j]
        if piv == 0:
            return np.zeros(nc)
        if piv < 0:
            sign = -sign
        if i != k:
            B[[k, i]] = B[[i, k]]
            sign = -sign
        if j != k:
            B[:, [k, j]] = B[:, [j, k]]
            perm[k], perm[j] = perm[j], perm[k]
            sign = -sign
        below = B[k + 1 :]
        below[:, k:] -= (below[:, k] / piv)[:, None] * B[k, k:]
    x = np.zeros(nc, dtype=np.longdouble)
    x[nr] = 1.0
    for k in range(nr - 1, -1, -1):
        x[k] = -(B[k, k + 1 :] @ x[k + 1 :]) / B[k, k]
    a = np.zeros(nc)
    a[perm] = x
    return sign * (a / np.max(np.abs(a)))


def _same_bits(a, b) -> bool:
    """Equal bit for bit, the sign of a zero too; any NaN matches a NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(np.isnan(a), np.isnan(b)) and np.array_equal(
        np.where(np.isnan(a), 0.0, a).view(np.int64), np.where(np.isnan(b), 0.0, b).view(np.int64))


def _add_special_matrices(stack, rng):
    """A NaN in matrix 6, +inf in 7, -inf in 9, a zero column in 10 and two
    infinite entries in 11."""
    n, nc = stack.shape[1:]
    for m, v in ((6, np.nan), (7, np.inf), (9, -np.inf)):
        stack[m, rng.integers(n), rng.integers(nc)] = v
    stack[10, :, rng.integers(nc)] = 0.0
    stack[11, 0, 0] = stack[11, -1, -1] = np.inf


@pytest.mark.parametrize("n", range(1, 12))
def test_null_vector_stack_matches_loop_elimination(n):
    # a stack gives, bit for bit, each matrix's one-matrix result, and both
    # are the swap-by-swap elimination's: rounded entries tie in the pivot
    # search, node rows of a power family share their leading 1; NaN, inf
    # and a zero column follow the same arithmetic (the one-matrix path
    # warns as numpy's scalars do, so warnings are off here)
    rng = np.random.default_rng(100 + n)
    stack = rng.standard_normal((30, n, n + 1)) * 10.0 ** rng.uniform(-3, 3, (30, n, 1))
    stack[::4] = np.round(stack[::4])
    exps = [0.0, 0.5, 1.5, 2.5, 4.0, 5.0, 6.5, 7.0, 8.5, 9.0, 10.5, 11.0]
    fam = power_family(exps[: n + 1], interval(0.1, 1.2))
    stack[1] = node_rows(fam, [(x, 1) for x in np.linspace(0.2, 1.1, n)])
    stack[2, -1] = 2.0 * stack[2, 0] if n > 1 else 0.0  # rank-deficient
    stack[5] = 0.0
    _add_special_matrices(stack, rng)
    with np.errstate(all="ignore"):
        got = null_vector(stack)
        assert got.shape == (30, n + 1)
        for B, row in zip(stack, got):
            ref = _loop_null_vector(B)
            assert _same_bits(row, ref) and _same_bits(null_vector(B), ref)
    assert not got[2].any() and not got[5].any() and np.isnan(got[6]).all()


def test_empty_stacks_give_empty_results():
    assert null_vector(np.zeros((0, 3, 4))).shape == (0, 4)
    assert det(np.zeros((0, 4, 4))).shape == (0,)
    assert det(np.zeros((0, 0, 0))).shape == (0,)


def test_one_matrix_answers_a_nan_without_the_stack(monkeypatch):
    # a NaN entry, and a NaN that first turns up in the back-substitution
    # (inf / inf), give an all-NaN cofactor vector and a NaN determinant
    def no_stack(B):
        raise AssertionError("a single matrix reached _eliminate_stack")

    monkeypatch.setattr(colloc, "_eliminate_stack", no_stack)
    B = np.array([[1.0, np.nan, 2.0], [3.0, 4.0, 5.0]])
    assert np.isnan(null_vector(B)).all() and math.isnan(det(np.vstack([B[:1], B])))
    with np.errstate(invalid="ignore"):
        assert np.isnan(null_vector(np.array([[np.inf, np.inf]]))).all()
        assert math.isnan(det(np.array([[1.0, 1.0], [np.inf, np.inf]])))
    assert not null_vector(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])).any()


def _mp_det(M):
    """50-digit determinant of a float matrix (1 for 0 x 0)."""
    if len(M) == 0:
        return mpmath.mpf(1)
    with mpmath.workdps(50):
        return mpmath.det(mpmath.matrix(np.asarray(M, dtype=float).tolist()))


def _reference_matrices():
    """Random square matrices of dimension 1-12 with row scales 1e-3 to 1e3,
    and confluent node matrices of power and monomial families."""
    rng = np.random.default_rng(16)
    for n in range(1, 13):
        for _ in range(6):
            yield rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    fam = power_family([0.0, 0.5, 1.5, 2.5, 4.0, 5.0, 6.5], interval(0.1, 1.2))
    for nodes in (((0.3, 2), (0.7, 3), (1.1, 2)), ((0.5, 4), (0.9, 3)),
                  ((0.2, 1), (0.6, 2), (0.8, 2), (1.0, 2))):
        yield node_rows(fam, nodes)
    yield node_rows(monomial_family(list(range(8)), interval(-1, 1)), ((-0.5, 3), (0.0, 2), (0.5, 3)))
    yield node_rows(monomial_family(list(range(12)), interval(-1, 1)),
                    ((-0.9, 3), (-0.2, 3), (0.4, 3), (0.8, 3)))


def test_det_and_cofactors_match_50_digit_reference():
    # an oracle independent of the elimination: mpmath's determinant of the
    # matrix and of the minors, C_j = (-1)^j det(B without column j)
    for M in _reference_matrices():
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(det(M)) - _mp_det(M)) <= 1e-14 * det_scale(M)
            B = M[1:]
            C = [(-1) ** j * _mp_det(np.delete(B, j, axis=1)) for j in range(B.shape[1])]
            c_max = max(abs(c) for c in C)
            err = max(abs(mpmath.mpf(v) * c_max - c) for v, c in zip(null_vector(B), C))
            assert err <= 1e-14 * (det_scale(B) if len(B) else 1.0)


@pytest.mark.parametrize("n", range(1, 13))
def test_det_stack_matches_one_matrix_bitwise(n):
    rng = np.random.default_rng(200 + n)
    stack = rng.standard_normal((20, n, n)) * 10.0 ** rng.uniform(-3, 3, (20, n, 1))
    stack[::4] = np.round(stack[::4])  # ties in the pivot search
    stack[2, -1] = 2.0 * stack[2, -2] if n > 2 else 0.0  # singular below the first row
    stack[5] = 0.0
    _add_special_matrices(stack, rng)
    with np.errstate(all="ignore"):
        got = det(stack)
        assert got.shape == (20,) and got[2] == got[5] == 0.0
        for M, d in zip(stack, got):
            assert _same_bits(det(M), d)
    assert np.isnan(got[6])


def test_t_refutation_bisection_stops_when_float64_cannot_split(monkeypatch):
    # {1, x, x^3} on [-a, b]: det = Vandermonde * (x_0 + x_1 + x_2), so the
    # bisected counterexample is a tuple summing to about 0
    monkeypatch.setattr(colloc, "_CERT_CACHE", {})
    calls = []
    real_det = colloc.det
    monkeypatch.setattr(colloc, "det", lambda m: calls.append(1) or real_det(m))
    cert = certify(monomial_family([0, 1, 3], interval(-0.6, 0.8)), "T")
    assert cert.level == "none" and len(calls) <= 64
    pts = [p for p, _ in cert.counterexample.nodes]
    assert len(pts) == 3 and abs(sum(pts)) <= 1e-15


def test_desk_refutations_are_sound_crossings_in_few_determinants(monkeypatch):
    # the 14 {1, x, x^3} refute windows of the desk benchmark corpus: each
    # counterexample vanishes, the determinant changes sign across it (every
    # node moved by -1e-6 and by +1e-6, well above rounding), and the search
    # for it takes at most 24 long-double determinants
    insts = [inst for inst in perfbench_workloads().WORKLOADS["desk"].corpus()
             if inst.stratum == "certify:refute:2"]
    assert len(insts) == 14
    calls = []
    real_det = colloc.det
    monkeypatch.setattr(colloc, "det", lambda m: calls.append(1) or real_det(m))
    for inst in insts:
        monkeypatch.setattr(colloc, "_CERT_CACHE", {})
        calls.clear()
        fam = inst.args["family"]
        cert = certify(fam, "T")
        assert cert.level == "none" and len(calls) <= 24, (inst.args, len(calls))
        pts = np.array([p for p, _ in cert.counterexample.nodes])
        assert len(pts) == 3 and np.all(np.diff(pts) > 0)
        assert colloc.vanishes(fam.eval_grid(pts))
        sides = [fam.eval_grid(pts + shift) for shift in (-1e-6, 1e-6)]
        dets = [real_det(rows) for rows in sides]
        assert dets[0] * dets[1] < 0
        assert all(abs(d) >= 1e-13 * det_scale(rows) for d, rows in zip(dets, sides))


def test_t_refutation_evaluates_the_basis_once_a_step_in_one_order(monkeypatch):
    # the zeroin along the path between two tuples evaluates the rows of each
    # tuple it tries in one eval_grid, with the one order 0 where no points
    # coincide (the cheaper call); the others are the canonical sign's, the
    # screen's table and the two sides of the crossing.  Its steps are
    # sequential, so the count is one a step: 11 for this window, as with
    # an array of zero orders a step.
    monkeypatch.setattr(colloc, "_CERT_CACHE", {})
    calls, steps = [], []
    real = FamilySpec.eval_grid
    monkeypatch.setattr(FamilySpec, "eval_grid", lambda self, xs, order=0: calls.append(order) or real(self, xs, order))
    real_zeroin = colloc._zeroin
    monkeypatch.setattr(colloc, "_zeroin", lambda f, brackets: real_zeroin(lambda ts: steps.extend(ts) or f(ts), brackets))
    cert = certify(monomial_family([0, 1, 3], interval(-0.6039, 0.3192)), "T")
    assert cert.level == "none"
    assert 0 < len(steps) <= 12 and len(calls) == len(steps) + 4, (len(steps), len(calls))
    assert all(isinstance(order, int) and order == 0 for order in calls)


@pytest.mark.parametrize("target", ["T", "ET"])
def test_tuple_chunks_are_one_draw_in_order(target):
    # the chunks are the tuples of one draw of them all, in order: for T the
    # strictly increasing ones among 1.2 * budget draws, for ET the diagonal
    # and then budget draws
    grid, n, budget, seed = 101, 2, 45_000, 4
    chunks = colloc._tuple_chunks(grid, n, target, budget, seed)
    assert next(chunks) is False
    got = list(chunks)
    assert [len(c) for c in got[:2]] == [1_000, 20_000]
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, grid, size=(int(budget * 1.2) if target == "T" else budget, n + 1))
    draws.sort(axis=1)
    if target == "T":
        expected = draws[np.all(np.diff(draws, axis=1) > 0, axis=1)][:budget]
    else:
        expected = np.vstack([np.tile(np.arange(grid)[:, None], (1, n + 1)), draws])
    assert np.array_equal(np.concatenate(got), expected)
    # a count within the budget: every sorted tuple
    chunks = colloc._tuple_chunks(6, n, target, budget, seed)
    assert next(chunks) is True
    assert len(np.concatenate(list(chunks))) == math.comb(6 + (0 if target == "T" else n), n + 1)


def test_t_refutation_screens_only_its_first_chunk(monkeypatch):
    monkeypatch.setattr(colloc, "_CERT_CACHE", {})
    screened = []
    real = colloc._tuple_chunks

    def counting(*args):
        for chunk in real(*args):
            screened.append(chunk if isinstance(chunk, bool) else len(chunk))
            yield chunk

    monkeypatch.setattr(colloc, "_tuple_chunks", counting)
    cert = certify(monomial_family([0, 1, 3], interval(-0.6, 0.8)), "T")
    assert cert.level == "none"
    assert screened == [False, 1_000]


def test_a_grid_without_tuples_is_refused(monkeypatch):
    # two grid points hold no increasing triple: a screen of no tuple would
    # pass a family that the three-point grid refutes
    monkeypatch.setattr(colloc, "_CERT_CACHE", {})
    fam = monomial_family([0, 1, 3], interval(-1, 1))
    with pytest.raises(ValueError, match="holds no T tuple"):
        certify(fam, "T", grid=2)
    cert = certify(fam, "T", grid=3)
    assert cert.level == "none" and cert.counterexample.points == (-1.0, 0.0, 1.0)
    # ET tuples may repeat a point, so two points hold some
    assert certify(fam, "ET", grid=2).level == "none"


def test_sampled_t_screen_holds_budget_increasing_tuples():
    # 12 points of 17: few of 120 sorted draws are strictly increasing, so
    # the rest are drawn increasing; every route screens ``budget`` tuples
    chunks = colloc._tuple_chunks(17, 11, "T", 100, 0)
    assert next(chunks) is False
    tuples = np.concatenate(list(chunks))
    assert tuples.shape == (100, 12) and np.all(np.diff(tuples, axis=1) > 0)
    assert tuples.min() >= 0 and tuples.max() <= 16


def test_sampled_t_screen_of_one_tuple_is_not_vacuous(monkeypatch):
    monkeypatch.setattr(colloc, "_CERT_CACHE", {})
    fam = monomial_family([0, 1, 3], interval(-1, 1))
    for seed in range(4):
        cert = certify(fam, "T", grid=4, budget=1, seed=seed)
        assert not cert.exhaustive and math.isfinite(cert.evidence)


def test_confluent_orders_count_the_equal_points_before():
    tuples = np.array([[0, 1, 2], [0, 0, 1], [1, 1, 1], [0, 2, 2], [3, 3, 4]])
    want = [[0, 0, 0], [0, 1, 0], [0, 1, 2], [0, 0, 1], [0, 1, 0]]
    assert colloc._confluent_orders(tuples).tolist() == want
    assert colloc._confluent_orders(np.array([[0.5, 0.5]])).tolist() == [[0, 1]]


def test_reduced_system_monomials():
    # monomials (0,1,2): g_i = (x^{i+1})' = (1, 2x)
    fam = monomial_family([0, 1, 2], interval(0.2, 1.0))
    red = reduced_system(fam)
    assert red.size == 2
    assert np.isclose(red.eval_one(0, 0.5), 1.0)
    assert np.isclose(red.eval_one(1, 0.5), 1.0)
    assert np.isclose(red.eval_one(1, 0.5, 1), 2.0)


def test_wronskian_reduction_identity():
    # W(f_0..f_n) = f_0^(n+1) W(g_0..g_{n-1}) pointwise
    for fam in (
        monomial_family([0, 1, 2, 3], interval(0.3, 1.5)),
        monomial_family([0, 1, 2, 3, 4, 5], interval(0.3, 1.5)),
        exponential_family([0.0, 0.7, 1.3], interval(-0.5, 0.5)),
        exponential_family([-1.0, -0.2, 0.4, 1.1, 1.9, 2.5], interval(-0.5, 0.5)),
    ):
        n = fam.order
        red = reduced_system(fam)
        xs = np.linspace(*fam.domain.window(), 200)
        for x in xs[::25]:
            lhs = wronskian(fam, n, float(x))
            f0 = fam.eval_one(0, float(x))
            rhs = f0 ** (n + 1) * wronskian(red, n - 1, float(x))
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_reduced_system_empty():
    fam = monomial_family([0], interval(0, 1))
    red = reduced_system(fam)
    assert red.size == 0


def test_ect_canonical_weights_monomials():
    fam = monomial_family([0, 1, 2], interval(0, 1))
    xs, G = ect_canonical_weights(fam, grid=51)
    assert np.allclose(G[0], 1.0)
    assert np.allclose(G[1], 1.0)
    assert np.allclose(G[2], 2.0)


def test_ect_canonical_weights_exponential():
    fam = exponential_family([0.0, 1.0], interval(0, 1))
    xs, G = ect_canonical_weights(fam, grid=51)
    assert np.allclose(G[0], 1.0)
    assert np.allclose(G[1], np.exp(xs), rtol=1e-10)


def test_ect_weights_reconstruct_f1_by_quadrature():
    # f_1(x) - f_1(a) f_0(x)/f_0(a) = f_0(x) * integral_a^x g_1
    fam = exponential_family([0.5, 1.7], interval(0, 1))
    xs, G = ect_canonical_weights(fam, grid=401)
    a = xs[0]
    g1 = G[1]
    # trapezoid quadrature of g_1
    integ = np.concatenate([[0.0], np.cumsum((g1[1:] + g1[:-1]) / 2 * np.diff(xs))])
    f0 = fam.eval_grid(xs)[:, 0]
    f1 = fam.eval_grid(xs)[:, 1]
    recon = f0 * integ
    target = f1 - f1[0] * f0 / f0[0]
    assert np.max(np.abs(recon - target)) < 1e-6 * np.max(np.abs(target) + 1)
