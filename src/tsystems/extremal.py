"""Extremal nonnegative polynomials and the search over them.

A nonnegative polynomial of a T-system of order n whose zeros have index n
is extremal in the cone.  Its zero pattern fixes the simple zeros at the
domain's ends and leaves m double zeros theta free.  ``PATTERNS`` is the one
table of them: the principal patterns of each domain are the zero sets of a
Karlin decomposition's parts and what moment duality and ratio bounds
optimize linear functionals over.  ``search`` does that for both, by
L-BFGS-B on theta with the derivative of each functional taken from the
node null vector by implicit differentiation; ``search_polys`` builds its
end points.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.optimize import minimize

from .colloc import NodeSet, null_vector, null_vector_tangent
from .errors import TSystemError
from .family import FamilySpec, _subfamily, halfline_xmax
from .zeros import SparsePoly, poly_from_zeros

#: pattern -> (its fixed simple zeros at the window's ends, how many top
#: members its sub-family drops).  Upper patterns drop the top member on the
#: half-line and two on the real line, where p >= 0 has an even top degree;
#: for odd n both real-line patterns drop one more.
PATTERNS = {
    "interior_doubles": ((), 0), "a_doubles_b": (("lo", "hi"), 0),
    "a_doubles": (("lo",), 0), "doubles_b": (("hi",), 0),
    "hl_lower_even": ((), 0), "hl_upper_even": (("lo",), 1),
    "hl_lower_odd": (("lo",), 0), "hl_upper_odd": ((), 1),
    "rl_upper_even": ((), 2), "rl_lower_odd": ((), 1), "rl_upper_odd": ((), 3),
}
_PRINCIPAL = {  # (domain kind, n % 2) -> (lower, upper)
    ("closed_interval", 0): ("interior_doubles", "a_doubles_b"),
    ("closed_interval", 1): ("a_doubles", "doubles_b"),
    ("left_closed_halfline", 0): ("interior_doubles", "hl_upper_even"),
    ("left_closed_halfline", 1): ("hl_lower_odd", "hl_upper_odd"),
    ("real_line", 0): ("interior_doubles", "rl_upper_even"),
    ("real_line", 1): ("rl_lower_odd", "rl_upper_odd"),
}


def principal_patterns(kind: str, n: int) -> tuple[str, str]:
    """(lower, upper) pattern names of order n on a domain of this kind."""
    return _PRINCIPAL[kind, n % 2]


def _patterns_for(family: FamilySpec):
    """(pattern, #free interior points) of the family's principal patterns
    whose fixed zeros and dropped members leave room for m >= 0."""
    n = family.order
    free = [(p, n - len(PATTERNS[p][0]) - PATTERNS[p][1])
            for p in principal_patterns(family.domain.kind, n)]
    return [(p, k // 2) for p, k in free if k >= 0]


def extremal_test_polys(family: FamilySpec, pattern: str, theta) -> SparsePoly:
    """Nonnegative polynomial with the index-n zero placement of a pattern
    of ``PATTERNS``, embedded in ``family``."""
    theta = tuple(float(t) for t in np.atleast_1d(np.asarray(theta, dtype=float))) if np.size(theta) else ()
    fam, nodes = _pattern_nodes(family, pattern, theta)
    p = poly_from_zeros(fam, NodeSet(tuple(sorted(nodes))), "auto_nonneg", check_certificate=False)
    if fam is family:
        return p
    coeffs = np.zeros(family.size)
    coeffs[: fam.size] = p.a
    return SparsePoly(tuple(coeffs), family)


def _pattern_nodes(family: FamilySpec, pattern: str, theta) -> tuple:
    """(family or sub-family, nodes) of a pattern's zero placement.

    The nodes are the pattern's fixed simple zeros at the ends of the
    domain's window followed by a double zero at each theta_j, in the order
    of theta; the sub-family drops the pattern's top members.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    ends, drop = PATTERNS[pattern]
    window = dict(zip(("lo", "hi"), family.domain.window()))
    fam = _subfamily(family, slice(0, -drop)) if drop else family
    return fam, [(window[e], 1) for e in ends] + [(t, 2) for t in theta]


def _search_window(family: FamilySpec) -> tuple[float, float]:
    """Where the search places zeros: the domain or its working window."""
    lo, hi = family.domain.window()
    if family.domain.kind == "left_closed_halfline":
        hi = lo + halfline_xmax(family)
    return lo, hi


def _interior(family: FamilySpec, seeds) -> list:
    """The seeds ``search`` reads: those strictly inside the search window and
    beyond its separation guard, 1e-6 of the window, from each one kept."""
    lo, hi = _search_window(family)
    kept = []
    for t in seeds:
        if lo + 1e-9 < t < hi - 1e-9 and all(abs(t - u) > 1e-6 * (hi - lo) for u in kept):
            kept.append(t)
    return kept


@functools.lru_cache(maxsize=None)
def _block_layout(fixed_mult: tuple, m: int, curvature: bool) -> tuple:
    """(nb, gather, orders) of _pattern_vectors' eval_grid block: its first
    nb rows are the node rows, taken from the point list (lo, hi, fixed
    points, thetas) at ``gather``; then one order-0 row at the middle of
    the widest gap and, with ``curvature``, an order-2 row per theta."""
    mult = list(fixed_mult) + [2] * m
    gather = np.repeat(np.arange(2, len(mult) + 2), mult)
    orders = np.array([d for mu in mult for d in range(mu)] + [0] + [2] * (m if curvature else 0))
    gather.flags.writeable = orders.flags.writeable = False  # shared by every call
    return len(gather), gather, orders


def _pattern_vectors(fam: FamilySpec, fixed, thetas, window, curvature: bool = False) -> tuple:
    """Node matrix B and null vector a of the extremal polynomial with the
    ``fixed`` (point, multiplicity) nodes and a double zero at each entry of
    ``thetas`` (an m-vector, or a k x m stack of placements, giving stacks
    of k matrices and vectors).

    a is the null vector of B, oriented so p > 0 at the middle of the
    widest gap between p's zeros on ``window`` and scaled to unit max-norm
    (a_k = +-1, as poly_from_zeros scales).  With ``curvature`` a third
    item holds the rows f''(theta_j) that null_vector_tangent needs.  Every
    row comes from one eval_grid call, and a stack takes one null_vector
    call.
    """
    thetas = np.asarray(thetas, dtype=float)
    lead, m = thetas.shape[:-1], thetas.shape[-1]
    th = thetas.reshape(-1, m)
    k, nf = len(th), len(fixed)
    nb, gather, orders = _block_layout(tuple(mu for _, mu in fixed), m, curvature)
    pts = np.empty((k, nf + m + 2))
    pts[:, :2] = window
    pts[:, 2 : nf + 2] = [x for x, _ in fixed]
    pts[:, nf + 2 :] = th
    at = np.empty((k, len(orders)))
    at[:, :nb] = pts[:, gather]
    if curvature:
        at[:, nb + 1 :] = th
    pts.sort(axis=1)
    widest = (pts[:, 1:] - pts[:, :-1]).argmax(axis=1)
    each = np.arange(k)
    at[:, nb] = (pts[each, widest] + pts[each, widest + 1]) / 2
    rows = fam.eval_grid(at, orders if k == 1 else np.tile(orders, k)).reshape(lead + at.shape[1:] + (-1,))
    B = rows[..., :nb, :]
    a = null_vector(B)
    np.negative(a, out=a, where=(np.matmul(rows[..., nb : nb + 1, :], a[..., None])[..., 0] < 0))
    return (B, a, rows[..., nb + 1 :, :]) if curvature else (B, a)


def _pattern_value_grad(fam: FamilySpec, nodes, m: int, s: np.ndarray, window) -> tuple:
    """L(p) and dL(p)/dtheta for the extremal polynomial p of a node list
    whose last m >= 1 nodes are the free double zeros theta.

    ``s`` is one functional (n+1 moments, giving a value and an m-vector)
    or a block of k functionals (k x (n+1), giving k values and a k x m
    array), all from one solve.  p's coefficients a come from
    _pattern_vectors; da/dtheta comes from null_vector_tangent, and
    dL/dtheta_j = s.da/dtheta_j.  L takes the first fam.size moments of s.
    """
    theta = [x for x, _ in nodes[-m:]]
    B, a, second = _pattern_vectors(fam, nodes[:-m], theta, window, curvature=True)
    n1 = fam.size
    s = s[..., :n1]
    return s @ a, s @ null_vector_tangent(B, a, n1 - 2 * m + 2 * np.arange(m), second)


def _pattern_values(family: FamilySpec, pattern: str, thetas, s: np.ndarray) -> np.ndarray:
    """The values of _pattern_value_grad at each row of ``thetas`` (k x m,
    each row sorted), bit for bit, from one _pattern_vectors call: k values
    for one functional, k x r for a block of r.  A placement whose node
    matrix is singular has no polynomial and gets nan.
    """
    fam, fixed = _pattern_nodes(family, pattern, ())
    _, a = _pattern_vectors(fam, fixed, thetas, _search_window(family))
    vals = np.matmul(s[..., : fam.size], a[:, :, None])[..., 0]
    vals[~a.any(axis=1)] = np.nan
    return vals


#: a start stops once it comes this close (in units of the window width,
#: max-norm in theta) to an end point of its pattern at no lower a value
SAME_END = 1e-4


def _scan_starts(family: FamilySpec, pattern: str, m: int, s: np.ndarray, objective, rng) -> list:
    """The best three placements of search's deterministic coarse scan, one
    batched evaluation: the optimum's basin can be narrow."""
    lo, hi = _search_window(family)
    if m <= 2:
        axis = lo + (hi - lo) * np.linspace(0.015, 0.985, 40)
        cands = axis[:, None] if m == 1 else axis[np.column_stack(np.triu_indices(40, 1))]
    else:
        cands = np.sort(rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), (400, m)), axis=1)
    try:
        vals = _pattern_values(family, pattern, cands, s)
    except TSystemError:  # a node the family cannot evaluate: no scan start
        vals = np.full((len(cands),) + s.shape[:-1], np.nan)
    scan = np.full(len(cands), 1e100)
    admissible = np.all(np.diff(cands, axis=1) > 1e-6 * (hi - lo), axis=1)
    admissible &= np.isfinite(vals.reshape(len(cands), -1)).all(axis=1)
    for c in np.flatnonzero(admissible):
        try:
            scan[c] = objective(vals[c], np.zeros(vals.shape[1:] + (m,)))[0]
        except TSystemError:
            pass
    return [cands[c] for c in np.argsort(scan, kind="stable")[:3] if scan[c] < 1e90]


def search(family: FamilySpec, s: np.ndarray, objective, rng, starts: int, seeds=(), *,
           seeded_only: bool = False):
    """Multistart search over the extremal patterns of ``family``.

    ``objective(values, grads)`` maps what _pattern_value_grad gives for
    ``s`` at a theta to the value and theta-gradient to minimize; it may
    raise TSystemError where a theta is inadmissible.  Each pattern's theta
    runs L-BFGS-B, boxed inside the search window, from the seeded start
    (the first m ``seeds`` inside the window, or all of them padded with
    random points), then the best three of a coarse scan, an equispaced
    placement and ``starts`` - 1 random placements, drawn from ``rng`` in
    that order; with ``seeded_only``, from the seeded start alone.  The
    coarse scan is one batched evaluation (_pattern_values) of a grid of 40
    positions per zero for m <= 2, of 400 random placements otherwise.  A
    start whose iterate comes within SAME_END of the window width of an end
    point its pattern already reached, at no lower a value, is stopped and
    yields nothing: it would re-derive that end point.  Yields (pattern,
    theta, value) for each other search's end point, pattern by pattern; a
    pattern without free zeros is yielded once with theta () and value
    None.
    """
    lo, hi = _search_window(family)
    interior_seeds = _interior(family, seeds)
    for pattern, m in _patterns_for(family):
        if m == 0:
            yield pattern, (), None
            continue

        def obj(theta):
            order = np.argsort(theta)
            th = theta[order]
            if m > 1 and np.any(np.diff(th) <= 1e-6 * (hi - lo)):
                return 1e100, np.zeros(m)
            try:
                fam, nodes = _pattern_nodes(family, pattern, th)
                val, grad = objective(*_pattern_value_grad(fam, nodes, m, s, (lo, hi)))
            except (TSystemError, np.linalg.LinAlgError):
                return 1e100, np.zeros(m)
            g = np.empty(m)
            g[order] = grad
            return val, g

        inits = []
        if len(interior_seeds) >= m:
            inits.append(np.sort(np.array(interior_seeds[:m])))
        elif interior_seeds:
            pad = list(interior_seeds)
            while len(pad) < m:
                pad.append(float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))))
            inits.append(np.sort(np.array(pad)))
        if not seeded_only:
            inits.extend(_scan_starts(family, pattern, m, s, objective, rng))
            inits.append(lo + (hi - lo) * np.arange(1, m + 1) / (m + 1))
            inits.extend(np.sort(lo + (hi - lo) * rng.uniform(0.02, 0.98, m)) for _ in range(starts - 1))
        box = [(lo + 1e-10 * (hi - lo), hi - 1e-10 * (hi - lo))] * m
        ends = []  # (theta, value) of this pattern's searches so far

        def repeats(theta, value):
            theta = np.sort(theta)
            return any(value >= v and np.max(np.abs(theta - t)) <= SAME_END * (hi - lo) for t, v in ends)

        def stop_at_old_end(intermediate_result):
            if repeats(intermediate_result.x, intermediate_result.fun):
                raise StopIteration

        # gtol bounds the first-order change of the objective across the
        # whole window: a per-unit bound stops early on long half-line windows
        for th0 in inits:
            res = minimize(obj, th0, jac=True, method="L-BFGS-B", bounds=box, callback=stop_at_old_end,
                           options={"ftol": 1e-14, "gtol": 1e-10 / (hi - lo), "maxiter": 200})
            if res.fun < 1e90 and not repeats(res.x, res.fun):
                ends.append((np.sort(res.x), res.fun))
                yield pattern, ends[-1][0], res.fun


def search_polys(family: FamilySpec, s: np.ndarray, objective, rng, starts: int, seeds=(), *,
                 seeded_only: bool = False):
    """(pattern, theta, p) for each end point of ``search`` that
    poly_from_zeros builds (``extremal_test_polys``); one it refuses is
    skipped."""
    for pattern, theta, _ in search(family, s, objective, rng, starts, seeds, seeded_only=seeded_only):
        try:
            p = extremal_test_polys(family, pattern, theta)
        except TSystemError:
            continue
        yield pattern, theta, p
