"""Extremal nonnegative polynomials and the search over them.

A nonnegative polynomial of a T-system of order n whose zeros have index n
is extremal in the cone.  Its zero pattern fixes the simple zeros at the
domain's ends and leaves m double zeros theta free.  Moment duality and
ratio bounds both optimize linear functionals of these polynomials over the
patterns and theta; ``search`` does it for both, by L-BFGS-B on theta with
the derivative of each functional taken from the node null vector by
implicit differentiation.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from .colloc import NodeSet, node_rows, null_vector, null_vector_tangent
from .errors import TSystemError
from .family import FamilySpec, halfline_xmax
from .zeros import SparsePoly, poly_from_zeros


def _patterns_for(family: FamilySpec):
    """(pattern, #free interior points) pairs available for this family."""
    n = family.order
    on_halfline = family.domain.kind == "left_closed_halfline"
    pats = []
    if n % 2 == 0:
        m = n // 2
        pats.append(("interior_doubles", m))
        if on_halfline:
            if m >= 1:
                pats.append(("hl_upper_even", m - 1))
        elif m >= 1:
            pats.append(("a_doubles_b", m - 1))
    else:
        m = (n - 1) // 2
        if on_halfline:
            pats.append(("hl_lower_odd", m))
            pats.append(("hl_upper_odd", m))
        else:
            pats.append(("a_doubles", m))
            pats.append(("doubles_b", m))
    return pats


def extremal_test_polys(
    family: FamilySpec,
    pattern: str,
    theta,
    certificate=None,
) -> SparsePoly:
    """Nonnegative polynomial with the index-n zero placement of a pattern.

    Interval patterns: "interior_doubles" (even n), "a_doubles_b" (even),
    "a_doubles" / "doubles_b" (odd).  Half-line patterns mirror the
    decomposition structure: "hl_lower_even", "hl_upper_even",
    "hl_lower_odd", "hl_upper_odd" (the upper patterns drop the top member).
    """
    theta = tuple(float(t) for t in np.atleast_1d(np.asarray(theta, dtype=float))) if np.size(theta) else ()
    fam, nodes = _pattern_nodes(family, pattern, theta)
    p = poly_from_zeros(fam, NodeSet(tuple(sorted(nodes))), "auto_nonneg",
                        certificate=certificate, check_certificate=False)
    if fam is family:
        return p
    coeffs = np.zeros(family.size)
    coeffs[: fam.size] = p.a
    return SparsePoly(tuple(coeffs), family)


def _pattern_nodes(family: FamilySpec, pattern: str, theta) -> tuple:
    """(family or sub-family, nodes) of a pattern's zero placement.

    The nodes are the pattern's fixed simple zeros followed by a double zero
    at each theta_j, in the order of theta.  The half-line upper patterns
    take the sub-family without the top member.
    """
    lo, hi = family.domain.window()
    doubles = [(t, 2) for t in theta]
    if pattern in ("interior_doubles", "hl_lower_even"):
        return family, doubles
    if pattern == "a_doubles_b":
        return family, [(lo, 1), (hi, 1)] + doubles
    if pattern in ("a_doubles", "hl_lower_odd"):
        return family, [(lo, 1)] + doubles
    if pattern == "doubles_b":
        return family, [(hi, 1)] + doubles
    if pattern in ("hl_upper_even", "hl_upper_odd"):
        sub = FamilySpec(family.variant, family.params[:-1], family.domain)
        return sub, ([(lo, 1)] if pattern == "hl_upper_even" else []) + doubles
    raise ValueError(f"unknown pattern {pattern!r}")


def _search_window(family: FamilySpec) -> tuple[float, float]:
    """Where the search places zeros: the domain or its working window."""
    lo, hi = family.domain.window()
    if family.domain.kind == "left_closed_halfline":
        hi = lo + halfline_xmax(family)
    return lo, hi


def _pattern_value_grad(fam: FamilySpec, nodes, m: int, s: np.ndarray, window) -> tuple:
    """L(p) and dL(p)/dtheta for the extremal polynomial p of a node list
    whose last m >= 1 nodes are the free double zeros theta.

    ``s`` is one functional (n+1 moments, giving a value and an m-vector)
    or a block of k functionals (k x (n+1), giving k values and a k x m
    array), all from one solve.  p's coefficients a are the null vector of
    the node matrix B, oriented so p > 0 at the middle of the widest gap
    between its zeros on ``window`` and scaled to unit max-norm (a_k = +-1,
    as poly_from_zeros scales); da/dtheta comes from null_vector_tangent,
    and dL/dtheta_j = s.da/dtheta_j.  L takes the first fam.size moments of s.
    """
    pts = np.sort([*window, *(x for x, _ in nodes)])
    i = int(np.argmax(np.diff(pts)))
    rows = node_rows(fam, [*nodes, ((pts[i] + pts[i + 1]) / 2, 1)])
    B = rows[:-1]
    a = null_vector(B)
    if rows[-1] @ a < 0:
        a = -a
    n1 = fam.size
    s = s[..., :n1]
    theta = [x for x, _ in nodes[-m:]]
    return s @ a, s @ null_vector_tangent(fam, B, a, theta, n1 - 2 * m + 2 * np.arange(m))


def search(family: FamilySpec, s: np.ndarray, objective, rng, starts: int, seeds=()):
    """Multistart search over the extremal patterns of ``family``.

    ``objective(values, grads)`` maps what _pattern_value_grad gives for
    ``s`` at a theta to the value and theta-gradient to minimize; it may
    raise TSystemError where a theta is inadmissible.  Each pattern's theta
    runs L-BFGS-B, boxed inside the search window, from the ``seeds`` that
    lie inside it (padded with random points), the best three of a coarse
    scan, an equispaced placement and ``starts`` - 1 random placements,
    drawn from ``rng`` in that order.  Yields (pattern, theta, value) for
    each search's end point, pattern by pattern; a pattern without free
    zeros is yielded once with theta () and value None.
    """
    lo, hi = _search_window(family)
    interior_seeds = [t for t in seeds if lo + 1e-9 < t < hi - 1e-9]
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
        # deterministic coarse scan: the optimum's basin can be narrow
        axis = lo + (hi - lo) * np.linspace(0.015, 0.985, 40 if m <= 2 else 12)
        if m == 1:
            cands = [(obj(np.array([t]))[0], (t,)) for t in axis]
        elif m == 2:
            cands = [
                (obj(np.array([t1, t2]))[0], (t1, t2))
                for i, t1 in enumerate(axis)
                for t2 in axis[i + 1 :]
            ]
        else:
            cands = []
            for _ in range(400):
                th = np.sort(rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), m))
                cands.append((obj(th)[0], tuple(th)))
        cands.sort(key=lambda c: c[0])
        inits.extend(np.array(c[1]) for c in cands[:3] if c[0] < 1e90)
        inits.append(lo + (hi - lo) * np.arange(1, m + 1) / (m + 1))
        for _ in range(starts - 1):
            inits.append(np.sort(lo + (hi - lo) * rng.uniform(0.02, 0.98, m)))
        box = [(lo + 1e-10 * (hi - lo), hi - 1e-10 * (hi - lo))] * m
        # gtol bounds the first-order change of the objective across the
        # whole window: a per-unit bound stops early on long half-line windows
        for th0 in inits:
            res = minimize(obj, th0, jac=True, method="L-BFGS-B", bounds=box,
                           options={"ftol": 1e-14, "gtol": 1e-10 / (hi - lo), "maxiter": 200})
            if res.fun < 1e90:
                yield pattern, np.sort(res.x), res.fun
