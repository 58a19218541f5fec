import copy
import dataclasses
import json
import math
import pickle
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsystems import (
    FamilySpec,
    custom_family,
    eval_basis,
    exponential_family,
    halfline,
    interval,
    monomial_family,
    power_family,
    rational_family,
    real_line,
    validate,
)
from tsystems.errors import DomainViolation, NonDifferentiable


def test_monomial_values():
    fam = monomial_family([0, 1, 2], real_line())
    assert np.allclose(eval_basis(fam, 2.0), [1, 2, 4])


def test_power_first_derivative_by_hand():
    fam = power_family([0, 2, 3], interval(0.5, 2))
    # d/dx x^alpha = alpha x^(alpha-1) at x = 1
    assert np.allclose(eval_basis(fam, 1.0, 1), [0, 2, 3])


def test_exponential_high_order_at_zero():
    fam = exponential_family([0, 1], real_line())
    assert np.allclose(eval_basis(fam, 0.0, 5), [0, 1])


def test_rational_derivatives():
    fam = rational_family([1.0, 2.0], interval(0, 3))
    x = 1.5
    # d/dx 1/(x+a) = -1/(x+a)^2
    assert np.allclose(eval_basis(fam, x, 1), [-1 / (x + 1) ** 2, -1 / (x + 2) ** 2])


def test_power_derivative_at_zero_integer_exponents():
    fam = power_family([0, 2, 3], halfline(0.0))
    assert np.allclose(eval_basis(fam, 0.0, 2), [0, 2, 0])
    assert np.allclose(eval_basis(fam, 0.0, 3), [0, 0, 6])


def test_power_derivative_vanishing_member_near_zero_is_silent():
    # x and 1 have identically zero second derivatives: no power x^(d - 2) of a
    # tiny x may overflow on their behalf
    fam = monomial_family([0, 1, 2], interval(-1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(fam.eval_grid([1e-200], 2), [[0.0, 0.0, 2.0]])


def test_power_noninteger_derivative_at_zero_raises():
    fam = power_family([0, 0.5], interval(0, 1))
    assert np.allclose(eval_basis(fam, 0.0, 0), [1, 0])
    with pytest.raises(NonDifferentiable):
        eval_basis(fam, 0.0, 1)


def test_domain_violation():
    fam = power_family([0, 0.5], interval(0, 1))
    with pytest.raises(DomainViolation):
        eval_basis(fam, -0.1)


def test_validate_fixtures():
    assert validate(power_family([0, 2, 3], interval(0, 1))).ok
    bad = FamilySpec("power", (0.5, 1.0), interval(0, 1))
    v = validate(bad)
    assert not v.ok and any("0" in msg for msg in v.violations)
    bad2 = FamilySpec("rational", (-2.0, 1.0), interval(1, 3))
    assert not validate(bad2).ok


def test_validate_strictly_increasing():
    assert not validate(FamilySpec("monomial", (0, 2, 2), real_line())).ok


def test_serialization_round_trip():
    fam = power_family([0, 0.5, 2], interval(0.25, 4))
    fam2 = FamilySpec.from_json(fam.to_json())
    assert fam2 == fam
    data = json.loads(fam.to_json())
    assert data["variant"] == "power"
    assert data["domain"]["kind"] == "closed_interval"


def test_custom_family_eval():
    evs = [
        lambda x, k: math.sin(x + k * math.pi / 2),  # derivatives of sin
        lambda x, k: math.exp(x),
    ]
    fam = custom_family(evs, interval(0, 1))
    assert fam.size == 2
    assert np.allclose(eval_basis(fam, 0.3, 1), [math.cos(0.3), math.exp(0.3)])


def test_custom_not_serializable():
    fam = custom_family([lambda x, k: 1.0], interval(0, 1))
    with pytest.raises(ValueError):
        fam.to_json()


def test_derivative_matches_finite_differences():
    # property from the module contract: order-k matches central FD of order k-1
    fam = power_family([0, 1, 3, 4], interval(0.2, 2.0))
    h = 1e-5
    xs = np.linspace(0.2, 2.0, 100)[1:-1]
    for k in (1, 2):
        exact = fam.eval_grid(xs, k)
        fd = (fam.eval_grid(xs + h, k - 1) - fam.eval_grid(xs - h, k - 1)) / (2 * h)
        denom = np.maximum(np.abs(exact), 1.0)
        assert np.max(np.abs(exact - fd) / denom) < 1e-6


def test_eval_deterministic():
    fam = exponential_family([-1, 0, 2], interval(-1, 1))
    a = fam.eval_grid(np.linspace(-1, 1, 17), 2)
    b = fam.eval_grid(np.linspace(-1, 1, 17), 2)
    assert np.array_equal(a, b)


def column_loop_reference(fam, xs, order):
    """One np.power / np.exp call per member, as a column loop computes it."""
    out = np.empty((len(xs), fam.size))
    for i, al in enumerate(np.asarray(fam.params, dtype=float)):
        if fam.variant == "exponential":
            out[:, i] = al**order * np.exp(al * xs) if order else np.exp(al * xs)
        elif fam.variant == "rational":
            out[:, i] = (-1.0) ** order * math.factorial(order) / (xs + al) ** (order + 1)
        else:
            fac = math.prod(al - j for j in range(order))
            out[:, i] = 0.0 if fac == 0.0 else fac * np.power(xs, al - order)
    return out


@pytest.mark.parametrize(
    "fam",
    [
        power_family([0, 0.5, 1, 2, 2.5, 3, 4.5, 6], halfline(0.0)),
        power_family([-1.5, -1, 0.3, 2.0], interval(0.5, 3)),
        monomial_family(list(range(9)), real_line()),
        exponential_family([-1.0, 0.0, 0.8, 2.0], interval(-1, 1)),
        rational_family([1.0, 2.0, 3.5], interval(0, 3)),
    ],
)
def test_vectorized_columns_match_column_loop_bitwise(fam):
    rng = np.random.default_rng(7)
    lo, hi = fam.domain.window()
    xs = rng.uniform(max(lo, 1e-3), hi, 257)
    for order in range(5):
        assert np.array_equal(fam.eval_grid(xs, order), column_loop_reference(fam, xs, order))
    # per-point orders: row j equals the one-order call at xs[j]
    orders = rng.integers(0, 4, len(xs))
    rows = np.array([fam.eval_grid([x], int(k))[0] for x, k in zip(xs, orders)])
    assert np.array_equal(fam.eval_grid(xs, orders), rows)


@st.composite
def power_blocks(draw):
    """A power or monomial family and a block of (point, order) rows.  Half
    exponents make alpha - k land on 2, 0.5 and -1 (numpy's scalar-power
    cases), natural ones have derivatives that vanish identically, and the
    points include 0, where only natural exponents are differentiable."""
    if draw(st.booleans()):
        halves = draw(st.lists(st.integers(-4, 12), min_size=1, max_size=6, unique=True))
        fam = FamilySpec("power", tuple(sorted(h / 2 for h in halves)), halfline(0.0))
        point = st.floats(1e-3, 6.0)
    else:
        degrees = draw(st.lists(st.integers(0, 8), min_size=1, max_size=6, unique=True))
        fam = FamilySpec("monomial", tuple(sorted(degrees)), real_line())
        point = st.floats(-3.0, 3.0)
    n = draw(st.integers(1, 8))
    xs = draw(st.lists(st.one_of(st.just(0.0), st.just(1.0), point), min_size=n, max_size=n))
    orders = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return fam, xs, orders


@settings(max_examples=300, deadline=None, derandomize=True)
@given(power_blocks())
def test_mixed_orders_match_single_order_rows_bitwise(block):
    fam, xs, orders = block
    rows = []
    for x, k in zip(xs, orders):
        try:
            rows.append(fam.eval_grid([x], k)[0])
        except NonDifferentiable:
            rows.append(None)
        if x != 0.0:  # the one-order rows are the column loop's, at |x| below 0
            ref = column_loop_reference(fam, np.array([abs(x)]), k)[0]
            if x < 0:  # times (-1)^(alpha - k); +0 stays where the derivative vanishes
                al = np.asarray(fam.params, dtype=float)
                ref *= np.where(al >= k, (-1.0) ** (al - k), 1.0)
            assert np.array_equal(rows[-1].view(np.int64), ref.view(np.int64))
    if any(r is None for r in rows):
        # raised only for a row at 0 of order >= 1
        assert any(x == 0.0 and k >= 1 for x, k in zip(xs, orders))
        with pytest.raises(NonDifferentiable):
            fam.eval_grid(xs, orders)
        return
    got = fam.eval_grid(xs, orders)
    assert np.array_equal(got.view(np.int64), np.array(rows).view(np.int64))


def test_evaluation_plan_is_not_part_of_identity():
    xs = [0.0, 0.5, 0.5, 1.0, 1.0, 1.0, 2.0]
    orders = [0, 0, 1, 0, 1, 2, 3]
    for fam, fresh in [
        (power_family([0, 0.5, 1.5, 3], interval(0, 2)), power_family([0, 0.5, 1.5, 3], interval(0, 2))),
        (monomial_family([0, 1, 2, 4], interval(0, 2)), monomial_family([0, 1, 2, 4], interval(0, 2))),
    ]:
        json_before = fam.to_json()
        vals = fam.eval_grid(xs, orders)
        # nothing is cached on the instance: equality, hashing and JSON see the fields only
        assert vars(fam).keys() == {f.name for f in dataclasses.fields(fam)}
        assert fam == fresh and hash(fam) == hash(fresh)
        assert fam.to_json() == json_before == fresh.to_json()
        for clone in (pickle.loads(pickle.dumps(fam)), copy.copy(fam), copy.deepcopy(fam)):
            assert clone == fam and hash(clone) == hash(fam)
            assert np.array_equal(clone.eval_grid(xs, orders), vals)
        # a sub-family built directly, as the extremal patterns and karlin do
        sub = FamilySpec(fam.variant, fam.params[:-1], fam.domain)
        built = (power_family if fam.variant == "power" else monomial_family)(fam.params[:-1], fam.domain)
        assert sub == built
        assert np.array_equal(sub.eval_grid(xs, orders), built.eval_grid(xs, orders))
        assert np.array_equal(sub.eval_grid(xs, orders), vals[:, :-1])


@pytest.mark.parametrize("degrees", [[0, 1.5, 2], [0, 1, 2.5], [0, 0.5]])
def test_monomial_family_rejects_fractional_degrees(degrees):
    with pytest.raises(ValueError, match="naturals"):
        monomial_family(degrees, interval(0, 1))


def test_monomial_family_accepts_integral_floats_and_numpy_ints():
    fam = monomial_family([0, 1.0, np.int64(2)], interval(0, 1))
    assert fam.params == (0, 1, 2)
    assert all(type(d) is int for d in fam.params)


@pytest.mark.parametrize("variant", ["power", "monomial"])
def test_array_params_evaluate_as_their_tuple(variant):
    # params given as an array, as exponential and rational families take them
    xs, orders = [0.25, 0.5, 0.5, 1.0], [0, 0, 1, 2]
    fam = FamilySpec(variant, np.array([0.0, 1.0, 2.0]), interval(0, 1))
    ref = FamilySpec(variant, (0.0, 1.0, 2.0), interval(0, 1))
    assert np.array_equal(fam.eval_grid(xs, orders).view(np.int64), ref.eval_grid(xs, orders).view(np.int64))


@st.composite
def negative_point_blocks(draw):
    """A monomial or natural-power family on [-c, c] and a block of (point,
    order) rows, most points below 0, some at 0."""
    degrees = sorted(draw(st.lists(st.integers(0, 12), min_size=1, max_size=8, unique=True)))
    c = draw(st.floats(0.05, 4.0))
    variant = draw(st.sampled_from(["monomial", "power"]))
    n = draw(st.integers(1, 10))
    xs = draw(st.lists(st.one_of(st.just(0.0), st.floats(-c, 0.0, exclude_max=True), st.floats(0.0, c)),
                       min_size=n, max_size=n))
    orders = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    params = tuple(map(float, degrees)) if variant == "power" else tuple(degrees)
    return FamilySpec(variant, params, interval(-c, c)), np.array(xs), np.array(orders)


def _ulps(a, b):
    """|a - b| in units of the last place of |b| (the smallest subnormal at 0)."""
    return np.abs(a - b) / np.spacing(np.abs(b))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(negative_point_blocks())
def test_natural_powers_below_zero_are_signed_powers_of_the_magnitude(block):
    # at x < 0 a natural exponent e gives (-1)^e |x|^e: numpy's pow takes a
    # slow scalar path on a negative base
    fam, xs, orders = block
    got = fam.eval_grid(xs, orders)
    mirrored = fam.eval_grid(np.abs(xs), orders)
    al = np.asarray(fam.params, dtype=float)
    e = al - orders[:, None]
    odd = (xs[:, None] < 0) & (e >= 0) & (e % 2 == 1)
    assert np.array_equal(got.view(np.int64), np.where(odd, -mirrored, mirrored).view(np.int64))
    # every row is the one-order call at its point
    rows = np.array([fam.eval_grid([x], int(k))[0] for x, k in zip(xs, orders)])
    assert np.array_equal(got.view(np.int64), rows.view(np.int64))
    # numpy's pow at x: within 1 ulp in the values, and within 2 ulps in the
    # derivatives, whose falling factorial product rounds once more
    with np.errstate(all="ignore"):
        powers = np.where(e >= 0, np.power(xs[:, None], np.maximum(e, 0.0)), 0.0)
    fac = np.array([[math.prod(a - j for j in range(k)) for a in al] for k in orders])
    assert np.all(_ulps(got, powers * fac) <= np.where(orders[:, None] == 0, 1.0, 2.0))
    # and within 2 eps of the 50-digit value, or of a subnormal ulp of the
    # power (times the factorial) where it underflows
    with mpmath.workdps(50):
        for j, i in zip(*np.nonzero(fac)):
            exact = fac[j, i] * mpmath.mpf(xs[j]) ** int(e[j, i])
            assert abs(got[j, i] - exact) <= 2 * 2.0**-52 * abs(exact) + abs(fac[j, i]) * np.spacing(0.0)


def test_other_exponents_below_zero_keep_numpys_pow():
    # non-natural exponents at x < 0 (reachable only through FamilySpec
    # itself): numpy's pow, its NaNs and its warning, as in the column loop
    fam = FamilySpec("power", (-2.0, -1.0, 0.0, 0.5, 1.5, 2.0, 3.0), interval(-2.0, 2.0))
    xs = np.array([-1.3, -0.7, -2.0, -0.5, 0.25, -1.0])
    with pytest.warns(RuntimeWarning, match="invalid value"):
        got = fam.eval_grid(xs, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = column_loop_reference(fam, xs, 0)
        for k in range(4):
            assert np.array_equal(fam.eval_grid(xs, k), column_loop_reference(fam, xs, k), equal_nan=True)
        mixed = fam.eval_grid(xs, [0, 1, 2, 3, 1, 2])
        rows = np.array([fam.eval_grid([x], k)[0] for x, k in zip(xs, [0, 1, 2, 3, 1, 2])])
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.isnan(got[xs < 0, 3:5]).all() and np.array_equal(got[:, 1], 1.0 / xs)
    assert np.array_equal(mixed, rows, equal_nan=True)


def test_a_nan_point_does_not_unsign_the_negative_points():
    # on the real line a NaN passes the domain check; the points below 0 in
    # its block still take the signed path, as their one-order calls do
    fam = monomial_family(list(range(8)), real_line())
    xs, orders = np.array([np.nan, -0.3, -0.3008004]), [0, 0, 1]
    rows = np.array([fam.eval_grid([x], k)[0] for x, k in zip(xs, orders)])
    assert np.array_equal(fam.eval_grid(xs, orders), rows, equal_nan=True)
