"""Independent checks of workload outputs.

Each checker returns ``None`` when the output is correct and a short reason
string when it is not.  The checkers use only numpy, scipy and the public
result objects; they never call the solver being checked.  They run outside
the timed region.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import maximum_filter1d
from scipy.optimize import linprog

RECONSTRUCTION_TOL = 1e-9  # criterion 7 (Lukacs oracle agreement)
ZERO_AGREEMENT_TOL = 1e-7  # criterion 7
PART_AGREEMENT_TOL = 1e-7
NONNEG_TOL = 1e-9  # the Karlin solver's own validity margin
CERT_NONNEG_TOL = 1e-10  # criterion 10's margin, here against a local magnitude
DENSE_GRID = 20001
LOCAL_WINDOW = DENSE_GRID // 50  # the window count_zeros uses for its local scale


def running_max(a: np.ndarray, k: int) -> np.ndarray:
    """max(a[i-k .. i+k]) for every i: a local magnitude scale."""
    return maximum_filter1d(a, size=2 * k + 1, mode="nearest")


def basis_values(params, variant: str, xs: np.ndarray) -> np.ndarray:
    """Power/monomial basis x**alpha evaluated without the library."""
    if variant not in ("power", "monomial"):
        raise ValueError(f"no independent evaluator for {variant!r}")
    alphas = np.asarray(params, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.power.outer(np.asarray(xs, dtype=float), alphas)
    vals[:, alphas == 0] = 1.0
    return vals


def poly_values(poly, xs: np.ndarray) -> np.ndarray:
    fam = poly.family
    return basis_values(fam.params, fam.variant, xs) @ np.asarray(poly.a, dtype=float)


def dense_window(domain) -> np.ndarray:
    """A dense grid over the domain, truncated at 10 when unbounded (the
    library's own working window)."""
    if domain.kind == "closed_interval":
        return np.linspace(domain.a, domain.b, DENSE_GRID)
    if domain.kind == "left_closed_halfline":
        return np.linspace(domain.a, domain.a + 10.0, DENSE_GRID)
    return np.linspace(-10.0, 10.0, DENSE_GRID)


def relative_to_local(vals: np.ndarray, scale_vals: np.ndarray) -> np.ndarray:
    """vals divided by the local magnitude (windowed running max) of |scale_vals|."""
    return vals / np.maximum(running_max(np.abs(scale_vals), LOCAL_WINDOW), 1e-300)


# -- karlin ----------------------------------------------------------------------


def check_karlin(f, dec, oracle) -> str | None:
    """Agreement with the Lukacs oracle and nonnegativity of both parts.

    ``oracle`` is ``lukacs_decompose`` of the dense coefficients of f.  The
    union of zero sets must agree (criterion 7), and so must each part on its
    own, so a swapped f_*/f^* pair is caught.
    """
    if dec.f_lower.family.params != f.family.params:
        return "decomposition family differs from the input family"
    if oracle.reconstruction_error > RECONSTRUCTION_TOL:
        return f"oracle reconstruction {oracle.reconstruction_error:.1e}"
    fa = np.asarray(f.a, dtype=float)
    scale = float(np.max(np.abs(fa)))
    lower = np.asarray(dec.f_lower.a, dtype=float)
    upper = np.asarray(dec.f_upper.a, dtype=float)
    if float(np.max(np.abs(lower + upper - fa))) > RECONSTRUCTION_TOL * scale:
        return "f_* + f^* differs from f"
    for part, ref, label in ((lower, oracle.f_lower, "f_*"), (upper, oracle.f_upper, "f^*")):
        want = np.zeros(len(fa))
        want[: len(ref)] = ref
        gap = float(np.max(np.abs(part - want)))
        # the parts can be far larger than f (cancellation in an ill-conditioned basis)
        if gap > PART_AGREEMENT_TOL * max(scale, float(np.max(np.abs(want)))):
            return f"{label} differs from the oracle by {gap:.1e}"
    got = sorted([z[0] for z in dec.zeros_lower.zeros] + [z[0] for z in dec.zeros_upper.zeros])
    want = sorted(list(oracle.xs) + list(oracle.ys) + [z for z, _ in oracle.zfactors])
    for z in want:
        miss = min(abs(z - k) for k in got) if got else math.inf
        if miss > ZERO_AGREEMENT_TOL:
            return f"oracle zero {z:.6g} missed by {miss:.1e}"
    xs = dense_window(f.family.domain)
    fvals = poly_values(f, xs)
    for vals, coeffs, label in ((poly_values(dec.f_lower, xs), lower, "f_*"),
                                (poly_values(dec.f_upper, xs), upper, "f^*")):
        worst = float(np.min(relative_to_local(vals, fvals)))
        if worst < -NONNEG_TOL:
            return f"{label} negative on the grid ({worst:.1e} of local |f|)"
        if f.family.domain.kind != "closed_interval" and coeffs[-1] < -NONNEG_TOL * scale:
            return f"{label} has a negative leading coefficient"
    return None


# -- moments ---------------------------------------------------------------------


def certificate_grids(family) -> list:
    """Where a dual certificate must be checked: the domain; on a half-line a
    linear grid near the origin plus a geometric one out to where the top
    power dominates (beyond it the leading coefficient decides)."""
    dom = family.domain
    if dom.kind != "left_closed_halfline":
        return [dense_window(dom)]
    top = max(float(family.params[-1]), 1e-9)
    span = max(10.0, 10.0 ** min(6.0 / top, 6.0))
    return [dense_window(dom), dom.a + np.geomspace(10.0, span, DENSE_GRID)]


def check_certificate(s, verdict) -> str | None:
    """An infeasibility verdict must carry p >= 0 with L(p) < 0.

    Nonnegativity is judged against a windowed running max of |p| (a local
    magnitude), not against the global max, so a dip hidden under a large
    top-degree term is caught.
    """
    if verdict.status != "infeasible":
        return f"verdict {verdict.status}, expected infeasible"
    p = verdict.certificate_poly
    if p is None:
        return "infeasible verdict without a certificate"
    s = np.asarray(s, dtype=float)
    scale = float(np.max(np.abs(s)))
    value = float(s @ np.asarray(p.a, dtype=float))
    if not value < -1e-9 * scale:
        return f"L(p) = {value:.2e} is not negative"
    for xs in certificate_grids(p.family):
        vals = poly_values(p, xs)
        rel = relative_to_local(vals, vals)
        i = int(np.argmin(rel))
        if rel[i] < -CERT_NONNEG_TOL:
            return (f"certificate dips to {vals[i]:.1e} at x = {xs[i]:.4g} "
                    f"({rel[i]:.1e} of local |p|)")
    if p.family.domain.kind != "closed_interval":
        a = np.asarray(p.a, dtype=float)
        if a[np.flatnonzero(a)[-1]] < 0:
            return "certificate is negative at infinity"
    return None


def measure_residual(family, atoms, s) -> float:
    if not atoms:
        return float(np.max(np.abs(s)))
    pos = np.array([x for x, _ in atoms], dtype=float)
    wts = np.array([w for _, w in atoms], dtype=float)
    moments = basis_values(family.params, family.variant, pos).T @ wts
    return float(np.max(np.abs(moments - np.asarray(s, dtype=float))))


def check_atoms(family, atoms, s, tol: float) -> str | None:
    """Atoms in the domain, positive weights, at most n+1 atoms, small residual."""
    s = np.asarray(s, dtype=float)
    scale = float(np.max(np.abs(s)))
    if len(atoms) > family.size:
        return f"{len(atoms)} atoms exceed n+1 = {family.size}"
    for x, w in atoms:
        if not w > 0:
            return f"atom weight {w:.2e} is not positive"
        if not family.domain.contains(float(x)):
            return f"atom {x:.4g} outside the domain"
    res = measure_residual(family, atoms, s)
    if res > tol * scale:
        return f"moment residual {res:.1e} exceeds {tol:.0e} * scale"
    return None


def check_primal(family, s, verdict, measure, tol: float) -> str | None:
    if verdict.status != "feasible":
        return f"verdict {verdict.status}, expected feasible"
    if verdict.witness_measure is None:
        return "feasible verdict without a witness"
    bad = check_atoms(family, verdict.witness_measure.atoms, s, tol)
    if bad:
        return "witness: " + bad
    bad = check_atoms(family, measure.atoms, s, tol)
    return "recovered: " + bad if bad else None


# -- desk ------------------------------------------------------------------------


def lp_minimax(basis: np.ndarray, fvals: np.ndarray) -> float:
    """Grid LP value of min_p max |f - p| (the best-approximation oracle)."""
    grid, nv = basis.shape
    c = np.zeros(nv + 1)
    c[-1] = 1.0
    ones = np.ones((grid, 1))
    A_ub = np.vstack([np.hstack([basis, -ones]), np.hstack([-basis, -ones])])
    b_ub = np.concatenate([fvals, -fvals])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * (nv + 1), method="highs")
    if not res.success:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.x[-1])


def check_best_approx(family, target, result, grid: int = 8001, tol: float = 1e-7) -> str | None:
    """The deviation on a dense grid must match the grid LP optimum."""
    lo, hi = family.domain.a, family.domain.b
    xs = np.linspace(lo, hi, grid)
    fvals = poly_values(target, xs)
    dev_lp = lp_minimax(basis_values(family.params, family.variant, xs), fvals)
    dev = float(np.max(np.abs(fvals - poly_values(result.poly, xs))))
    if abs(dev - dev_lp) > tol * max(1.0, dev_lp):
        return f"deviation {dev:.10g} vs LP oracle {dev_lp:.10g}"
    return None


def chebyshev_coeffs(m: int, a: float, b: float) -> np.ndarray:
    """Ascending monomial coefficients of T_m((2x - a - b) / (b - a))."""
    t = np.polynomial.chebyshev.Chebyshev.basis(m, domain=[a, b])
    return t.convert(kind=np.polynomial.Polynomial).coef


def check_snake(family, solution, which: str, tol: float = 1e-8) -> str | None:
    """With bounds -1 <= p <= 1 on monomials 0..m the snake is +-T_m on [a, b]:
    f_star touches the upper bound at b (T_m(1) = 1), f_upper_star the lower."""
    m = family.order
    want = chebyshev_coeffs(m, family.domain.a, family.domain.b)
    if which == "f_upper_star":
        want = -want
    got = np.asarray(solution.poly.a, dtype=float)
    gap = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    if gap > tol:
        return f"snake differs from the Chebyshev polynomial by {gap:.1e}"
    return None


def check_zero_round_trip(nodes, config, domain, tol: float = 1e-6) -> str | None:
    """count_zeros must return the prescribed zeros with their multiplicities."""
    got = [(float(x), int(m)) for x, m, _ in config.zeros]
    if len(got) != len(nodes):
        return f"{len(got)} zeros found, {len(nodes)} prescribed"
    width = domain.b - domain.a if domain.kind == "closed_interval" else 1.0
    for (x, m), (gx, gm) in zip(sorted(nodes), got):
        if gm != m or abs(gx - x) > tol * width:
            return f"zero {x:.6g}^{m} came back as {gx:.6g}^{gm}"
    return None


def check_certify(cert, expected: str) -> str | None:
    if cert.level != expected:
        return f"level {cert.level}, expected {expected}"
    if expected == "none" and cert.counterexample is None:
        return "refutation without a counterexample"
    return None


def smoothed_reference(family, i: int, x: float, sigma: float, truncation: float) -> float:
    """(f_i clipped to [a, b]) convolved with N(0, sigma^2) at x: 32-point
    Gauss-Legendre on 200 panels per piece, split where the clipping kinks."""
    a, b = family.domain.a, family.domain.b
    lo, hi = x - truncation * sigma, x + truncation * sigma
    cuts = np.unique(np.clip([lo, a, b, hi], lo, hi))
    nodes, weights = np.polynomial.legendre.leggauss(32)
    total = 0.0
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        edges = np.linspace(c0, c1, 201)
        mid = (edges[:-1] + edges[1:])[:, None] / 2
        half = (edges[1:] - edges[:-1])[:, None] / 2
        ys = (mid + half * nodes).ravel()
        src = basis_values(family.params, family.variant, np.clip(ys, a, b))[:, i]
        kern = np.exp(-0.5 * ((x - ys) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        total += float(np.sum((half * weights).ravel() * src * kern))
    return total


def check_smooth(family, smoothed, sigma: float, points, truncation: float = 8.0,
                 tol: float = 1e-8) -> str | None:
    if smoothed.size != family.size:
        return f"smoothed family has {smoothed.size} members, expected {family.size}"
    for x in points:
        for i in range(family.size):
            want = smoothed_reference(family, i, float(x), sigma, truncation)
            got = float(smoothed.eval_grid(np.array([float(x)]))[0, i])
            if abs(got - want) > tol * max(1.0, abs(want)):
                return f"member {i} at x = {x:.4g}: {got:.12g} vs {want:.12g}"
    return None
