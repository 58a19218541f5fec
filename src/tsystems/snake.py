"""Snake-theorem interlacing, generalized Remez best approximation, and
optimization of linear-functional ratios over the nonnegative cone."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .colloc import certify
from .errors import (
    CertificationRequired,
    InvariantViolation,
    NoSeparator,
    SNotStrictlyPositive,
)
from .extremal import _search_window, search_polys
from .family import FamilySpec
from .solvers import _newton
from .moments import _certificate_is_sound, _probe_rows
from .zeros import SparsePoly

LOWER = "lower"
UPPER = "upper"


def _as_callable(g, family: FamilySpec):
    """Accept a callable, SparsePoly, constant, or (xs, ys) table."""
    if callable(g):  # a SparsePoly too
        return g
    if np.isscalar(g):
        c = float(g)
        return lambda x, order=0: (c if order == 0 else 0.0) * np.ones_like(np.asarray(x, dtype=float))
    xs, ys = np.asarray(g[0], dtype=float), np.asarray(g[1], dtype=float)
    h = (xs[-1] - xs[0]) / (4 * len(xs))
    return lambda x, order=0: _differenced(lambda t: np.interp(t, xs, ys), x, order, h)


def _call(g, x, order=0):
    try:
        return np.asarray(g(x, order), dtype=float)
    except TypeError:  # a plain callable g(x)
        return _differenced(g, x, order, 1e-6)


def _differenced(g, x, order, h):
    """g^(order) at x: order k >= 1 is the central difference of order k - 1, step
    h 4^(k-1), wide enough to span the rounding (for a table, the knots) of order k - 1."""
    x, step = np.asarray(x, dtype=float), h * 4 ** (order - 1)
    if order == 0:
        return np.asarray(g(x), dtype=float)
    return (_differenced(g, x + step, order - 1, h) - _differenced(g, x - step, order - 1, h)) / (2 * step)


@dataclass(frozen=True)
class SnakeSolution:
    poly: SparsePoly
    touch_points: tuple  # of (point, side)
    which: str
    max_violation: float

    def to_dict(self) -> dict:
        return {
            "poly": self.poly.to_dict(),
            "touch_points": [[float(t), s] for t, s in self.touch_points],
            "which": self.which,
            "max_violation": self.max_violation,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class BestApproximation:
    poly: SparsePoly
    deviation: float
    alternation_points: tuple
    sign: int
    stalled: bool = False
    lower_bounds: tuple = ()  # per-iteration alternation deviations |d|

    def to_dict(self) -> dict:
        return {
            "poly": self.poly.to_dict(),
            "deviation": self.deviation,
            "alternation_points": list(map(float, self.alternation_points)),
            "sign": self.sign,
            "stalled": self.stalled,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# -- snake --------------------------------------------------------------------


def snake(
    family: FamilySpec,
    g1,
    g2,
    which: str = "f_star",
) -> SnakeSolution:
    """The unique band polynomial with n+1 alternating touch points.

    ``which="f_star"`` touches the upper bound at its rightmost touch point,
    ``which="f_upper_star"`` the lower bound.  Feasibility (existence of a
    strictly separating polynomial) is decided on the grid first: no
    separator has a margin above the band's least half-width; the weighted
    least-squares fit of the midline separates most bands explicitly; a grid
    LP decides the rest.
    """
    if which not in ("f_star", "f_upper_star"):
        raise ValueError("which must be 'f_star' or 'f_upper_star'")
    if not certify(family, "T"):
        raise CertificationRequired("snake needs a T-certified family")
    lo, hi = family.domain.window()
    xs = np.linspace(lo, hi, 2001)
    G1 = _as_callable(g1, family)
    G2 = _as_callable(g2, family)
    v1 = _call(G1, xs)
    v2 = _call(G2, xs)
    basis = family.eval_grid(xs)
    n = family.order
    if not (np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))):
        raise ValueError("g1 and g2 must be finite on the grid")
    band = float(np.max(v2 - v1))
    if not _separable(basis, v1, v2, 1e-12 * max(band, 1.0)):
        raise NoSeparator("no strictly separating polynomial on the grid")

    if n == 0:
        # single touch point: the constant pinned to the nearer bound
        upper = which == "f_star"
        level = (v2 if upper else v1) / basis[:, 0]
        i = int(np.argmin(level) if upper else np.argmax(level))
        poly = SparsePoly((float(level[i]),), family)
        touch = ((float(xs[i]), UPPER if upper else LOWER),)
        return SnakeSolution(poly, touch, which, _band_violation(basis @ poly.a, v1, v2))

    sides = _sides_for(which, n)
    ref = _initial_reference(lo, hi, n + 1)
    coeffs = None
    prev_refs = set()
    for _ in range(80):
        coeffs = _interp_bounds(family, ref, sides, G1, G2)
        poly_vals = basis @ coeffs
        over = poly_vals - v2
        under = v1 - poly_vals
        worst = max(float(over.max()), float(under.max()))
        if worst <= 1e-12 * max(band, 1.0):
            break
        xi = int(np.argmax(np.maximum(over, under)))
        side = UPPER if over[xi] >= under[xi] else LOWER
        ref, sides = _exchange(ref, sides, float(xs[xi]), side)
        key = tuple(np.round(ref, 12))
        if key in prev_refs:
            break
        prev_refs.add(key)

    # polish: Newton on touch values/derivatives for interior touch points
    ref, coeffs = _polish_snake(family, ref, sides, G1, G2, lo, hi)
    poly = SparsePoly(tuple(coeffs), family)
    touch = tuple((float(t), s) for t, s in zip(ref, sides))
    _snake_invariants(touch, n)
    return SnakeSolution(poly, touch, which, _band_violation(basis @ poly.a, v1, v2))


def _separable(basis, v1, v2, level) -> bool:
    """Whether some p = basis @ c has v1 + t <= p <= v2 - t on the grid, t > level.

    Every separator's margin is at most min (v2 - v1)/2, so a band no wider
    than 2 level has none.  Otherwise the least-squares fit of the midline
    weighted by 1/half-width is an explicit witness when its margin is above
    level; the grid LP decides only the bands that witness cannot.
    """
    if not float(np.min(v2 - v1)) > 2 * level:
        return False
    return _witness_margin(basis, v1, v2) > level or _lp_margin(basis, v1, v2) > level


def _witness_margin(basis, v1, v2) -> float:
    """min(v2 - p, p - v1) on the grid for p the weighted fit of the midline."""
    w = 2.0 / (v2 - v1)
    coeffs = np.linalg.lstsq(basis * w[:, None], (v1 + v2) / 2 * w, rcond=None)[0]
    p = basis @ coeffs
    return float(min(np.min(v2 - p), np.min(p - v1)))


def _lp_margin(basis, v1, v2) -> float:
    """The largest t >= 0 with v1 + t <= p <= v2 - t on the grid (-inf when HiGHS fails)."""
    grid, nv = basis.shape
    c = np.zeros(nv + 1)
    c[-1] = -1.0
    A_ub = np.block([[basis, np.ones((grid, 1))], [-basis, np.ones((grid, 1))]])
    b_ub = np.concatenate([v2, -v1])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * nv + [(0, None)], method="highs")
    return float(res.x[-1]) if res.success else -math.inf


def _sides_for(which: str, n: int) -> list:
    # rightmost touch: f_star -> upper bound, f_upper_star -> lower bound
    last, other = (UPPER, LOWER) if which == "f_star" else (LOWER, UPPER)
    return [last if (n - i) % 2 == 0 else other for i in range(n + 1)]


def _initial_reference(lo, hi, count) -> np.ndarray:
    j = np.arange(count)
    return lo + (hi - lo) * (1 - np.cos(np.pi * j / (count - 1))) / 2


def _interp_bounds(family, ref, sides, G1, G2) -> np.ndarray:
    return np.linalg.solve(family.eval_grid(np.asarray(ref)), _on_sides(ref, sides, G1, G2))


def _on_sides(points, sides, G1, G2, order=0) -> np.ndarray:
    """The bound of each point's side at it, each bound called once on its side's points."""
    points, upper = np.asarray(points, dtype=float), np.array([s == UPPER for s in sides])
    out = np.empty(len(points))
    for G, on in ((G2, upper), (G1, ~upper)):
        if on.any():
            out[on] = _call(G, points[on], order)
    return out


def _exchange(ref, sides, x_new, side_new):
    """Single-point exchange keeping the alternation pattern: x_new replaces
    its neighbour with the same side; beyond an end, with the opposite side
    to that end's, it enters there and the far end leaves (the reference
    shifts).  The reference stays sorted."""
    ref = list(ref)
    sides = list(sides)
    pos = np.searchsorted(ref, x_new)
    if pos < len(ref) and sides[pos] == side_new:
        ref[pos] = x_new
    elif pos > 0 and sides[pos - 1] == side_new:
        ref[pos - 1] = x_new
    elif pos == 0:
        ref, sides = [x_new] + ref[:-1], [side_new] + sides[:-1]
    else:
        ref, sides = ref[1:] + [x_new], sides[1:] + [side_new]
    return np.array(ref), sides


def _polish_snake(family, ref, sides, G1, G2, lo, hi):
    """Newton on the touch system, halved to the rounding floor by solvers._newton at tol 0.

    The polynomial interpolates the bounds at the touch points, A(t) c = b(t),
    and at each interior touch t_i its slope matches the bound's, R_i =
    p'(t_i) - g'(t_i) = 0.  From A c = b, dc/dt_j = -R_j A^-1 e_j, so J =
    diag(p'' - g'') - (F' A^-1)[:, interior] diag(R), on one mixed-order basis
    block; g'' is a difference of g' (a bound may be a plain callable).
    """
    ref = np.asarray(ref, dtype=float).copy()
    interior = [i for i, t in enumerate(ref) if lo + 1e-12 < t < hi - 1e-12]
    if not interior:
        return ref, _interp_bounds(family, ref, sides, G1, G2)
    m, k = len(ref), len(interior)
    orders, h = np.repeat([0, 1, 2], [m, k, k]), 1e-4 * (hi - lo)
    inner_sides = [sides[i] for i in interior] * 3

    def at(z):
        r = ref.copy()
        r[interior] = z
        return r

    def system(z):
        r = at(z)
        blk = family.eval_grid(np.concatenate([r, z, z]), orders)
        A, F1, F2 = blk[:m], blk[m : m + k], blk[m + k :]
        coeffs = np.linalg.solve(A, _on_sides(r, sides, G1, G2))
        below, above = np.maximum(z - h, lo), np.minimum(z + h, hi)
        slopes = _on_sides(np.concatenate([z, below, above]), inner_sides, G1, G2, 1)
        R = F1 @ coeffs - slopes[:k]

        def jac():
            curv = F2 @ coeffs - (slopes[2 * k :] - slopes[k : 2 * k]) / (above - below)
            return np.diag(curv) - np.linalg.solve(A.T, F1.T).T[:, interior] * R

        return R, jac

    def admissible(z):
        r = at(z)
        return bool(np.all(np.diff(r) > 0) and r[0] >= lo and r[-1] <= hi)

    z, *_ = _newton(system, ref[interior], 0.0, 50, admissible)
    r = at(z)
    return r, _interp_bounds(family, r, sides, G1, G2)


def _band_violation(pv, v1, v2) -> float:
    return float(max(np.max(pv - v2), np.max(v1 - pv), 0.0))


def _snake_invariants(touch, n):
    if len(touch) != n + 1:
        raise InvariantViolation(f"{len(touch)} touch points, expected {n + 1}")
    for i in range(len(touch) - 1):
        if touch[i][1] == touch[i + 1][1]:
            raise InvariantViolation("touch sides do not alternate")


# -- best approximation (generalized Remez) ------------------------------------

# err = f - p evaluated in floating point is exact only to about
# eps * max(|f| + sum |c_i f_i|); on members of the family the first
# exchange's error reads at most 2.0 of that unit (720 members, orders 0-11,
# monomial and power families), so 8 units leaves room and no more.
_ROUNDING_FLOOR = 8 * np.finfo(float).eps


def best_approx(
    family: FamilySpec,
    f,
    grid: int = 4001,
    max_iter: int = 60,
    init: str = "chebyshev",
) -> BestApproximation:
    """Best sup-norm approximation of f from lin(family) on [a, b].

    Multi-point Remez exchange on the n+2 alternation system; the extremum
    of each sign block of the error on the evaluation grid is located by a
    safeguarded successive-parabolic search (Brent), all blocks in lockstep
    with one evaluation of f and of the basis per step, about four steps a
    search.  The exchange stops once the levelled error |d| is within 1e-12
    of the grid deviation, relatively, or once the grid deviation is at the
    rounding floor of evaluating f - p (8 eps max(|f| + sum |c_i f_i|)): f
    is then a member of the span up to rounding.  ``stalled`` is set when a
    reference repeats or max_iter exchanges end before either.
    """
    if not certify(family, "T"):
        raise CertificationRequired("best_approx needs a T-certified family")
    F = _as_callable(f, family)
    lo, hi = family.domain.window()
    n = family.order
    xs = np.linspace(lo, hi, grid)
    fv = _call(F, xs)
    basis = family.eval_grid(xs)
    abs_fv, abs_basis = np.abs(fv), np.abs(basis)

    ref = _initial_reference(lo, hi, n + 2) if init == "chebyshev" else np.linspace(lo, hi, n + 2)

    best = None
    stalled = False
    seen = set()
    lower_bounds = []
    for _ in range(max_iter):
        A = np.column_stack([family.eval_grid(ref), (-1.0) ** np.arange(n + 2)])
        rhs = _call(F, ref)
        sol = np.linalg.solve(A, rhs)
        coeffs, d = sol[:-1], float(sol[-1])
        err = fv - basis @ coeffs
        dev_lower = abs(d)
        lower_bounds.append(dev_lower)
        dev_upper = float(np.max(np.abs(err)))
        best = (coeffs, d, ref.copy(), dev_upper)
        if dev_upper - dev_lower <= 1e-12 * max(dev_upper, 1e-300):
            break
        if dev_upper <= _ROUNDING_FLOOR * float(np.max(abs_fv + abs_basis @ np.abs(coeffs))):
            break  # err is rounding noise: f is a member up to evaluation error
        new_ref = _alternant(xs, err, n + 2, F, family, coeffs)
        if len(new_ref) != n + 2:
            # degenerate error (fewer sign blocks than n+2): the worst searched extremum
            # enters by the single exchange; err at ref[j] is d (-1)^j, either sign at d = 0
            e = _call(F, new_ref) - family.eval_grid(new_ref) @ coeffs
            i, sides = int(np.argmax(np.abs(e))), math.copysign(1.0, d) * (-1.0) ** np.arange(n + 2)
            new_ref = _exchange(ref, sides, float(new_ref[i]), np.sign(e[i]))[0]
        key = tuple(np.round(new_ref, 13))
        if key in seen:
            stalled = True
            break
        seen.add(key)
        ref = new_ref
    else:
        stalled = True  # max_iter ran out before the deviation levelled

    coeffs, d, ref, deviation = best
    poly = SparsePoly(tuple(coeffs), family)
    errs = _call(F, ref) - poly(ref)
    sign = 1 if errs[0] >= 0 else -1
    return BestApproximation(
        poly, deviation, tuple(map(float, ref)), sign,
        stalled, tuple(lower_bounds),
    )


def _div(p, q):
    """p / q on floats as numpy divides: x/0 is inf of the signs' product, 0/0 and nan/0 nan."""
    if q:
        return p / q
    return math.copysign(math.inf, p) * math.copysign(1.0, q) if p == p and p else math.nan


def _alternant(xs, err, count, F, family, coeffs) -> np.ndarray:
    """Pick an alternating set of local extremum points including the worst.

    Each sign block of err is searched for the maximum of h = sign * err
    between the grid neighbours of its grid maximum by Brent's safeguarded
    successive-parabolic search from that point and two grid neighbours
    (inward at a window end): the parabola's vertex when it is a maximum
    strictly inside the bracket and moves less than half the step before
    last, else a golden step into the larger side.  A step below tol (1e-9
    of the window over 4, or where the parabola's gain falls to the rounding
    error of h) is taken as tol; a block stops at its second such step in a
    row, or at a window end that the parabola peaks beyond.  All blocks move
    in lockstep, one call of F and of the basis a step; F is asked for no
    derivative (a callable may ignore ``order``).  Each block's search runs
    on Python floats, numpy's IEEE arithmetic without its per-call cost
    (_div divides as numpy does).
    """
    sign = np.where(err < 0, -1.0, 1.0)
    block = np.concatenate([[0], np.cumsum(sign[1:] != sign[:-1])])
    first = np.flatnonzero(np.diff(block, prepend=-1))
    s = sign[first]
    # each block's first maximum of |err| (NaN lowest), as a stable sort picks it
    h = np.where(np.isnan(err), -np.inf, np.abs(err))
    at_max = np.flatnonzero(h == np.maximum.reduceat(h, first)[block])
    top = at_max[np.flatnonzero(np.diff(block[at_max], prepend=-1))]
    c = np.clip(top, 1, len(xs) - 2)
    # a grid point past the flanking points of a block is another block's
    j = np.stack([top, np.where(top == c, c - 1, c), np.where(top > c, c - 1, c + 1)])
    hj = np.where(abs(block[j] - block[top]) <= 1, s * err[j], -np.inf)
    a, b = xs[np.maximum(top - 1, 0)], xs[np.minimum(top + 1, len(xs) - 1)]
    # per block: x, w, v, h(x), h(w), h(v), bracket a, b, steps e, d, small, noise
    state = [[*p, *hp, ai, bi, bi - ai, bi - ai, False, 0.0] for p, hp, ai, bi in
             zip(xs[j].T.tolist(), hj.T.tolist(), a.tolist(), b.tolist())]
    s, lo, hi, tol0 = s.tolist(), float(xs[0]), float(xs[-1]), 2.5e-10 * float(xs[-1] - xs[0])
    abs_coeffs, moving = np.abs(coeffs), list(range(len(s)))
    for _ in range(60):
        steps = []
        for i in moving:
            x, w, v, hx, hw, hv, a, b, e, d, small, noise = st = state[i]
            slope = _div(hw - hx, w - x)
            curv = _div(_div(hv - hx, v - x) - slope, v - w)
            u = (x + w) / 2 - _div(slope, 2 * curv)
            inside = curv < 0 and a < u < b
            par = inside and abs(u - x) < abs(e) / 2
            # np.maximum's NaN propagation: max keeps its first argument unless the second is larger
            tol = max(math.sqrt(noise / -curv) if par else 0.0, tol0)
            side = a - x if x - a > b - x else b - x
            e, d = (d, u - x) if par else (side, 0.381966 * side)
            was, small = small, abs(d) < tol
            st[8:11] = e, d, small
            if not (small and (was or abs(side) <= tol) or not inside and (x == lo or x == hi)):
                steps.append((i, x + (math.copysign(tol, side) if small else d)))
        if not steps:
            break
        moving, us = zip(*steps)
        Fu, Bu = _call(F, np.array(us)), family.eval_grid(np.array(us))
        eu = (Fu - Bu @ coeffs).tolist()
        noises = (np.finfo(float).eps * (np.abs(Fu) + np.abs(Bu) @ abs_coeffs)).tolist()
        for i, u, ei, nu in zip(moving, us, eu, noises):
            x, w, v, hx, hw, hv, a, b = state[i][:8]
            hu = s[i] * ei
            up = hu >= hx
            # a better u cuts the bracket at x, a worse one at u
            a, b = (x if up else u, b) if up != (u < x) else (a, x if up else u)
            new_w = not up and (hu >= hw or w == x)
            v, hv = (w, hw) if up or new_w else (u, hu) if hu >= hv or v == x or v == w else (v, hv)
            w, hw = (x, hx) if up else (u, hu) if new_w else (w, hw)
            x, hx = (u, hu) if up else (x, hx)
            state[i][:8], state[i][11] = (x, w, v, hx, hw, hv, a, b), nu
    x, hx = [st[0] for st in state], [st[3] for st in state]
    # the first and last block also weigh their window end, taken on a tie
    for k in (0, -1):
        if abs(err[k]) >= hx[k]:
            x[k], hx[k] = float(xs[k]), float(abs(err[k]))
    cands = sorted(zip(x, s, hx))
    # collapse same-sign neighbours, keep the larger
    merged = []
    for cand in cands:
        if merged and merged[-1][1] == cand[1]:
            if cand[2] > merged[-1][2]:
                merged[-1] = cand
        else:
            merged.append(cand)
    # trim to the requested count from the smaller end, keeping the global max
    imax = max(range(len(merged)), key=lambda i: merged[i][2])
    i, j = 0, len(merged) - 1
    while j - i + 1 > count:
        if merged[i][2] <= merged[j][2] and imax != i:
            i += 1
        elif imax != j:
            j -= 1
        else:
            i += 1
    return np.array([cand[0] for cand in merged[i : j + 1]])


# -- ratio optimization ---------------------------------------------------------


def optimize_ratio(
    family: FamilySpec,
    L,
    S,
    sense: str = "max",
    seed: int = 0,
):
    """Optimize L(p)/S(p) over nonnegative polynomials with index-n zero sets.

    extremal.search runs every zero pattern of the family by L-BFGS-B over
    its double-zero positions on -sense * L/S, whose gradient follows by the
    quotient rule from one solve for both functionals; S(p) <= 0 is
    inadmissible.  An end point counts when S(p) > 0 and it passes the
    checks a moment certificate must pass (moments._certificate_is_sound).
    Returns (value, argmax, top5), top5 listing (value, pattern, theta) for
    up to five distinct basins: end points of one pattern whose theta differ
    by less than 1e-6 of the search window count once, at their best value.
    """
    if not certify(family, "ET"):
        raise CertificationRequired("optimize_ratio needs an ET-certified family")
    LS = np.array([L.values if hasattr(L, "values") else L,
                   S.values if hasattr(S, "values") else S], dtype=float)
    sgn = 1.0 if sense == "max" else -1.0

    def objective(v, g):
        if v[1] <= 0:
            raise SNotStrictlyPositive(f"S(p) = {v[1]} <= 0 at a test polynomial")
        return -sgn * v[0] / v[1], -sgn * (g[0] * v[1] - v[0] * g[1]) / v[1] ** 2

    probe_rows = _probe_rows(family)
    results = []
    for pattern, theta, p in search_polys(family, LS, objective, np.random.default_rng(seed), 6):
        num, den = LS @ p.a
        if den > 0 and _certificate_is_sound(p, *probe_rows):
            results.append((float(num / den), pattern, tuple(map(float, theta)), p))

    if not results:
        raise InvariantViolation("no admissible extremal pattern found")
    results.sort(key=lambda r: sgn * r[0], reverse=True)
    value, tag, theta, poly = results[0]
    lo, hi = _search_window(family)
    top5 = []
    for v, pattern, th, _ in results:
        if len(top5) < 5 and not any(
            q == pattern and np.max(np.abs(np.subtract(t, th)), initial=0.0) < 1e-6 * (hi - lo)
            for _, q, t in top5
        ):
            top5.append((v, pattern, th))
    return value, poly, top5
