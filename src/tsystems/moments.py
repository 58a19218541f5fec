"""Hankel criteria, sparse truncated moment feasibility, atomic recovery.

Feasibility runs a primal/dual pair on one grid fit: NNLS on a few hundred
columns of the moment curve, checked on every column by (A/colnorm)^T r <=
10 eps |s| for its residual r = s - A w; with w . A^T r = 0, p = -sum r_i f_i
is >= 0 on the grid and L(p) = -|r|^2.  That p is the first certificate
tried.  The primal engine, shared with atomic recovery, polishes the fit to
at most n+1 atoms; a fit within tolerance is the witness.  Otherwise the
dual minimizes L over the extremal nonnegative polynomials (index-n zero
patterns) by the search of ``extremal``, a gradient search on the zero
positions seeded with the engine's atoms and p's basins, first from the
seeded start alone and then from many; a negative minimum that passes the
soundness checks here is the certificate.  |r| is the gap reported when no
side passes and the verdict is undecided; a numeric tool must admit a gap
since the exact conditions quantify over continua.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares, nnls

from .errors import NonDifferentiable, NotFeasible, TooShort, TSystemError
from .extremal import _search_window, extremal_test_polys, search
from .family import CLOSED_INTERVAL, REAL_LINE, FamilySpec, halfline_xmax
from .zeros import (
    NODAL,
    SparsePoly,
    ZeroConfig,
    _polish_critical,
    _running_max,
    count_zeros,
    index_of,
)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class MomentFunctional:
    """Basis moments s_i = L(f_i) over a family."""

    values: tuple
    family: FamilySpec

    def __post_init__(self):
        if len(self.values) != self.family.size:
            raise TooShort(
                f"{len(self.values)} moments for family of size {self.family.size}"
            )

    @property
    def s(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def __call__(self, p: SparsePoly) -> float:
        return float(self.s @ p.a)

    def to_dict(self) -> dict:
        return {"family": self.family.to_dict(), "s": list(map(float, self.values))}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_measure(family: FamilySpec, atoms) -> "MomentFunctional":
        s = np.zeros(family.size)
        for x, w in atoms:
            s += w * family.eval_grid(np.array([float(x)]))[0]
        return MomentFunctional(tuple(s), family)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely atomic measure sum c_j delta_{x_j} with positive weights."""

    atoms: tuple  # of (position, weight)

    def __post_init__(self):
        if any(w <= 0 for _, w in self.atoms):
            raise NotFeasible("atom weights must be positive")
        pos = sorted(x for x, _ in self.atoms)
        if any(pos[i] >= pos[i + 1] for i in range(len(pos) - 1)):
            raise NotFeasible("atom positions must be distinct")

    def moments(self, family: FamilySpec) -> np.ndarray:
        s = np.zeros(family.size)
        for x, w in self.atoms:
            s += w * family.eval_grid(np.array([float(x)]))[0]
        return s

    def to_dict(self) -> dict:
        return {"atoms": [[float(x), float(w)] for x, w in self.atoms]}


@dataclass(frozen=True)
class FeasibilityVerdict:
    """A feasibility verdict and its evidence.

    ``gap`` by status: "feasible", the witness's moment residual (max-norm);
    "infeasible", -L(certificate); "undecided", |r|, the 2-norm of the
    engine's grid NNLS residual r, which is -L(p) up to the KKT tolerance
    for p with coefficients -r/|r|, nonnegative on the engine's grid.
    """

    status: str
    witness_measure: AtomicMeasure | None = None
    certificate_poly: SparsePoly | None = None
    gap: float = 0.0
    determinacy_hint: dict = field(default_factory=dict)
    #: what decided the verdict: "basis" (a nonnegative basis direction),
    #: "primal" (the atomic witness), "dual" (the grid or an extremal
    #: certificate) or "none" (undecided)
    route: str = "none"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "route": self.route,
            "witness_measure": None
            if self.witness_measure is None
            else self.witness_measure.to_dict(),
            "certificate_poly": None
            if self.certificate_poly is None
            else self.certificate_poly.to_dict(),
            "gap": self.gap,
            "determinacy_hint": self.determinacy_hint,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# -- classical Hankel criteria ---------------------------------------------------


def _hankel(seq: np.ndarray) -> np.ndarray:
    n = (len(seq) + 1) // 2
    if n == 0:
        raise TooShort("empty sequence")
    return np.array([[seq[i + j] for j in range(n)] for i in range(n)], dtype=float)


def hankel_check(s, variant: str = "hamburger", tol: float = 1e-10) -> dict:
    """PSD verdicts for the Hankel matrices of the classical moment criteria.

    Builds H(s) plus the variant's shifted sequences: Xs (Stieltjes),
    (1-X)s (Hausdorff on [0,1]), (X^2-X)s (the split-domain test).
    """
    s = np.asarray(s, dtype=float)
    if len(s) < 1:
        raise TooShort("sequence must have length >= 1")
    variant = variant.lower()
    seqs: dict[str, np.ndarray] = {"H(s)": s}
    if variant == "hamburger":
        pass
    elif variant == "stieltjes":
        if len(s) < 2:
            raise TooShort("stieltjes needs length >= 2")
        seqs["H(Xs)"] = s[1:]
    elif variant == "hausdorff":
        if len(s) < 2:
            raise TooShort("hausdorff needs length >= 2")
        seqs["H(Xs)"] = s[1:]
        seqs["H((1-X)s)"] = s[:-1] - s[1:]
    elif variant == "svenco":
        if len(s) < 3:
            raise TooShort("svenco needs length >= 3")
        seqs["H((X^2-X)s)"] = s[2:] - s[1:-1]
    else:
        raise ValueError(f"unknown variant {variant!r}")

    out = {"variant": variant, "matrices": {}, "all_psd": True}
    for name, seq in seqs.items():
        H = _hankel(seq)
        ev = np.linalg.eigvalsh(H)
        scale = float(np.max(np.abs(H))) if H.size else 0.0
        psd = bool(ev.min() >= -tol * max(scale, 1.0))
        out["matrices"][name] = {
            "dim": H.shape[0],
            "min_eigenvalue": float(ev.min()),
            "psd": psd,
        }
        out["all_psd"] = out["all_psd"] and psd
    return out


# -- feasibility -----------------------------------------------------------------


def _primal_grid(family: FamilySpec, points: int) -> np.ndarray:
    lo, hi = family.domain.window()
    if family.domain.kind == "left_closed_halfline":
        hi = family.domain.a + halfline_xmax(family)
        lin = np.linspace(family.domain.a, hi, points)
        geo = family.domain.a + np.geomspace(1e-4, hi - family.domain.a, points // 4)
        return np.unique(np.concatenate([lin, geo]))
    return np.linspace(lo, hi, points)


def caratheodory_prune(V: np.ndarray, w: np.ndarray, max_atoms: int):
    """Reduce a conic combination V @ w (w >= 0) to <= max_atoms support points.

    Row/column equilibration keeps the null-vector step accurate when the
    moment curves span many orders of magnitude.
    """
    w = w.copy()
    target = V @ w
    base_err = float(np.max(np.abs(V @ w - target)))
    active = list(np.nonzero(w > 0)[0])
    while len(active) > max_atoms:
        Vs = V[:, active]
        R = np.maximum(np.max(np.abs(Vs), axis=1), 1e-300)
        W = Vs / R[:, None]
        C = np.maximum(np.max(np.abs(W), axis=0), 1e-300)
        W = W / C[None, :]
        _, sv, Vt = np.linalg.svd(W)
        eta = Vt[-1] / C
        pos = eta > 1e-14 * np.max(np.abs(eta))
        if not np.any(pos):
            eta = -eta
            pos = eta > 1e-14 * np.max(np.abs(eta))
        if not np.any(pos):
            break
        ratios = w[active][pos] / eta[pos]
        t = float(np.min(ratios))
        w_act = w[active] - t * eta
        w_act[w_act < 1e-15 * max(1.0, float(w_act.max()))] = 0.0
        w[active] = w_act
        active = [i for i in active if w[i] > 0]
    # guard: if pruning drifted the combination, keep the heaviest atoms instead
    scale = max(float(np.max(np.abs(target))), 1e-300)
    if float(np.max(np.abs(V @ w - target))) > max(100 * base_err, 1e-10 * scale):
        w2 = np.zeros_like(w)
        heavy = np.argsort(w)[-max_atoms:]
        w2[heavy] = w[heavy]
        return w2
    return w


class _Polished(Exception):
    """Ends a polish from inside its residual function."""


def _polish_atoms(family: FamilySpec, s: np.ndarray, positions, weights, lo, hi, abs_tol):
    """Bounded least-squares polish of (positions, weights) on the moment
    equations, with row equilibration (moment rows can span many decades).

    The tolerances ask for the rounding floor, which an ill-conditioned fit
    approaches by tiny steps until max_nfev; so the polish also ends, at its
    best point, at the first trial step that does not halve the cost once
    that point matches the moments to 1e-2 * abs_tol.
    """
    x = np.asarray(positions, dtype=float).copy()
    w = np.asarray(weights, dtype=float).copy()
    k = len(x)
    if k == 0:
        return x, w, float(np.max(np.abs(s)))
    scale = max(float(np.max(np.abs(s))), 1e-300)
    rsc = np.maximum(np.abs(s), 1e-6 * scale)
    best = [math.inf, math.inf, None]  # cost, moment residual, z

    def resid(z):
        xs_, ws_ = z[:k], z[k:]
        d = family.eval_grid(xs_).T @ ws_ - s
        r = d / rsc
        cost = float(r @ r)
        settled = best[1] <= 1e-2 * abs_tol and cost > best[0] / 2
        if cost < best[0]:
            best[:] = cost, float(np.max(np.abs(d))), z.copy()
        if settled:
            raise _Polished
        return r

    def jac(z):
        xs_, ws_ = z[:k], z[k:]
        V = family.eval_grid(xs_).T
        D = _safe_deriv_cols(family, xs_)
        return np.hstack([D * ws_, V]) / rsc[:, None]

    hi_b = np.inf if hi is None else hi
    z0 = np.concatenate([np.clip(x, lo, hi_b), np.maximum(w, 0.0)])
    lower = np.concatenate([np.full(k, lo), np.zeros(k)])
    upper = np.concatenate([np.full(k, hi_b), np.full(k, np.inf)])
    try:
        sol = least_squares(
            resid, z0, jac=jac, bounds=(lower, upper), method="trf",
            xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=400,
        )
        x, w = sol.x[:k], sol.x[k:]
    except _Polished:
        x, w = best[2][:k], best[2][k:]
    except Exception:
        pass
    res = float(np.max(np.abs(family.eval_grid(x).T @ w - s)))
    return x, w, res


def _safe_deriv_cols(family: FamilySpec, x: np.ndarray) -> np.ndarray:
    """Position-derivative columns; boundary atoms whose derivative does not
    exist (x^alpha at 0, alpha not natural) get a zero column (frozen)."""
    try:
        # a C-ordered copy: the Jacobian's memory layout steers the rounding
        # of the solves inside least_squares
        return family.eval_grid(x, 1).T.copy()
    except NonDifferentiable:
        cols = np.zeros((family.size, len(x)))
        for j, xj in enumerate(x):
            try:
                cols[:, j] = family.eval_grid(np.array([xj]), 1)[0]
            except NonDifferentiable:
                pass
        return cols


def _determinacy_hint(family: FamilySpec) -> dict:
    if family.variant not in ("power", "monomial"):
        return {}
    nz = [abs(float(p)) for p in family.params if p != 0]
    msum = float(sum(1.0 / a for a in nz)) if nz else 0.0
    baseline = float(sum(1.0 / i for i in range(1, len(nz) + 1)))
    return {
        "muntz_sum": msum,
        "harmonic_baseline": baseline,
        "hint_determinate": bool(msum >= baseline),
        "note": "informational only; never used in verdicts",
    }


#: p >= -CERT_TOL * (local magnitude of p) counts as nonnegative
CERT_TOL = 1e-10
_PROBE = 2001


def _probes(family: FamilySpec) -> list:
    """Uniform grids a certificate is checked on.

    The search window, reaching a quarter further on each unbounded side so
    a zero the search placed near the window's end is an interior zero of
    the check.  On a half-line [a, a + 10] gets a grid of its own, so the
    region near the origin, where the atoms are, is resolved as finely as
    an interval; the second grid starts at a + 5, and the overlap lets each
    zero be read on a grid where it is interior.
    """
    lo, hi = _search_window(family)
    kind = family.domain.kind
    if kind == CLOSED_INTERVAL:
        return [np.linspace(lo, hi, _PROBE)]
    if kind == REAL_LINE:
        return [np.linspace(1.25 * lo, 1.25 * hi, _PROBE)]
    return [np.linspace(lo, lo + 10.0, _PROBE), np.linspace(lo + 5.0, lo + 1.25 * (hi - lo), _PROBE)]


def _local_scale(vals: np.ndarray) -> np.ndarray:
    """Windowed running max of |p|, the local magnitude count_zeros uses."""
    return _running_max(np.abs(vals), max(3, len(vals) // 50))


def _locally_nonneg(p: SparsePoly, probes) -> bool:
    for probe in probes:
        vals = p(probe)
        if not np.all(vals >= -CERT_TOL * _local_scale(vals)):
            return False
    return True


def _zero_budget(p: SparsePoly, zeros, origin: float) -> tuple[int, int]:
    """(bound, found): a bound on the zeros of p and those count_zeros found.

    Power and exponential sums obey Descartes' rule of signs: at most as
    many zeros in (0, inf), counted with multiplicity, as sign changes in
    the coefficients (on a domain reaching below 0, integer exponents, the
    same again for x < 0 with the odd-degree signs flipped); a power zero
    within ``origin`` of 0 is taken for the zero at 0, which the rule does
    not count, so ``found`` errs low.  Other families get the T-system
    bound, the index of the zero set.
    """
    family = p.family
    a = p.a
    nz = np.flatnonzero(a)

    def changes(c):
        sg = np.sign(c[c != 0])
        return int(np.sum(sg[1:] != sg[:-1]))

    if family.variant == "exponential":
        return changes(a), sum(int(m) for _, m, _ in zeros.zeros)
    if family.variant in ("power", "monomial"):
        bound = changes(a)
        if family.domain.inf < 0:
            bound += changes(a * (-1.0) ** np.asarray(family.params, dtype=float))
        return bound, sum(int(m) for x, m, _ in zeros.zeros if abs(x) > origin)
    return (len(nz) - 1 if family.variant == "rational" else int(nz[-1])), index_of(zeros)


def _end_signs(p: SparsePoly) -> list:
    """Sign of p at each unbounded end of its domain (None where unknown)."""
    family = p.family
    kind = family.domain.kind
    if kind == CLOSED_INTERVAL:
        return []
    a = p.a
    nz = np.flatnonzero(a)
    top = float(np.sign(a[nz[-1]]))
    dominant = family.variant in ("power", "monomial", "exponential")
    ends = [top if dominant else None]
    if kind == REAL_LINE:
        if family.variant == "exponential":
            ends.append(float(np.sign(a[nz[0]])))
        elif family.variant in ("power", "monomial"):
            ends.append(top * (-1.0) ** float(family.params[nz[-1]]))
        else:
            ends.append(None)
    return ends


def _mp_value(p: SparsePoly, x: float):
    """p(x) summed in 40-digit mpmath from the double coefficients."""
    import mpmath  # only verdicts need it; keeps it out of import time

    family = p.family
    with mpmath.workdps(40):
        X = mpmath.mpf(x)
        if family.variant in ("power", "monomial"):
            terms = [mpmath.power(X, mpmath.mpf(al)) for al in family.params]
        elif family.variant == "exponential":
            terms = [mpmath.exp(mpmath.mpf(al) * X) for al in family.params]
        elif family.variant == "rational":
            terms = [1 / (X + mpmath.mpf(al)) for al in family.params]
        else:
            terms = [mpmath.mpf(ev(float(x), 0)) for ev in family.evaluators]
        return mpmath.fsum(mpmath.mpf(float(c)) * t for c, t in zip(p.a, terms))


def _certificate_is_sound(p: SparsePoly, probes) -> bool:
    """Evidence beyond the probe grids that p >= 0 on the whole domain.

    * p >= -CERT_TOL times its local magnitude on every probe grid;
    * count_zeros on each grid's window finds every interior zero
      non-nodal with even multiplicity, and no more zeros than the bound
      of _zero_budget allows (more would mean the count is not to be
      trusted);
    * on a domain with an unbounded end, p is positive at infinity (the
      top coefficient) and the zeros found exhaust the bound to within less
      than one pair, so no pair of sign changes hides beyond the last
      grid; where the sign at infinity is unknown the bound must be met
      exactly;
    * at each near-zero local minimum on the grids, also polished, and at
      each zero, p re-evaluated in mpmath is >= -CERT_TOL times the local
      magnitude.
    """
    family = p.family
    ends = [e for e in (family.domain.a, family.domain.b) if e is not None]
    # each zero is read on one grid: overlapping grids split mid-overlap
    cuts = [-math.inf] + [(b[0] + a[-1]) / 2 for a, b in zip(probes, probes[1:])] + [math.inf]
    found = []
    checks = []
    for probe, c_lo, c_hi in zip(probes, cuts, cuts[1:]):
        vals = p(probe)
        sloc = _local_scale(vals)
        if not np.all(vals >= -CERT_TOL * sloc):
            return False
        lo, hi = float(probe[0]), float(probe[-1])
        step = (hi - lo) / (len(probe) - 1)
        try:
            zeros = [z for z in count_zeros(p, window=(lo, hi), grid=len(probe)).zeros
                     if c_lo <= z[0] < c_hi]
        except TSystemError:  # a zero set count_zeros cannot resolve is no evidence
            return False
        for x, m, kind in zeros:
            # a zero within one probe step of a domain endpoint is that
            # endpoint's zero: it may read as nodal (the probe beyond it is
            # the endpoint itself, at rounding level), and its value is on
            # the probe and checked below
            at_end = [e for e in ends if abs(x - e) <= step]
            if at_end:
                if not found or found[-1][0] != at_end[0]:  # one zero per endpoint
                    found.append((at_end[0], m, NODAL))
            elif kind == NODAL or m % 2:
                return False
            else:
                found.append((x, m, kind))
        left = np.concatenate([vals[:1], vals[:-1]])
        right = np.concatenate([vals[1:], vals[-1:]])
        minima = probe[(vals <= left) & (vals <= right) & (vals < 1e-2 * sloc)]
        polished = [_polish_critical(p, float(x), lo, hi, hi - lo) for x in minima]
        for x in [*minima, *polished, *(z[0] for z in zeros)]:
            checks.append((x, sloc[int(np.clip(round((x - lo) / step), 0, len(probe) - 1))]))
    origin = float(probes[0][1] - probes[0][0])
    bound, count = _zero_budget(p, ZeroConfig(tuple(found), family.domain), origin)
    if count > bound:
        return False
    signs = _end_signs(p)
    if signs and (bound - count >= 2 or any(e is not None and e <= 0 for e in signs)):
        return False
    if None in signs and bound != count:
        return False
    return all(_mp_value(p, x) >= -CERT_TOL * scale for x, scale in checks)


def sparse_feasibility(
    L: MomentFunctional,
    grid: int = 2001,
    tol: float = 1e-8,
    seed: int = 0,
    starts: int = 4,
) -> FeasibilityVerdict:
    """Decide membership of L in the truncated moment cone.

    Steps, in order, the first to decide giving the verdict: (1) a basis
    direction >= 0 with a moment below -tol * scale; (2) the grid
    certificate p = -sum r_i f_i at unit max-norm coefficients, r the
    residual of the grid NNLS fit the engine starts from, p >= 0 on that
    grid with L(p) = -|r|^2 / max |r_i|; (3) the witness of the engine of
    ``recover_atoms`` (Caratheodory pruning, polish, support reduction):
    at most n+1 atoms matching the moments to tol * scale, the result kept
    per (family, moments, grid, tol) for a next ``recover_atoms``; (4) a
    gradient search on the zero positions of extremal nonnegative
    polynomials (dL from the node null vector, implicit differentiation of
    B a = 0), one start per pattern seeded by the engine's atoms, then one
    point per near-zero basin of p (read only where fewer atoms lie inside
    the window); (5) the full multistart, adding a coarse scan and
    ``starts`` random placements drawn from ``seed``.  Steps 2, 4 and 5
    give route "dual" with a certificate below -tol * scale that passes
    ``_certificate_is_sound``; "undecided" (route "none", gap |r|) means p
    failed it and neither search found such a certificate.

    Guarantee: an "infeasible" verdict carries a certificate p with
    L(p) < 0 that passed every check of ``_certificate_is_sound``:
    p >= -1e-10 times its local magnitude (a windowed running max of |p|)
    on the probe grids; count_zeros finds only even interior zeros, within
    the bound of Descartes' rule of signs or the T-system bound; on an
    unbounded domain p is positive at infinity and the zeros found leave
    no room for a sign change beyond the probe window; and its near-zero
    local minima, re-evaluated in mpmath, are nonnegative to the same
    relative tolerance.  A candidate that fails any check is never a
    certificate.
    """
    family = L.family
    s = L.s
    scale = max(float(np.max(np.abs(s))), 1e-300)
    hint = _determinacy_hint(family)

    # cheap certificate: a basis direction that is nonnegative on the domain
    xs0 = _primal_grid(family, 201)
    base_vals = family.eval_grid(xs0)
    probes = _probes(family)
    for i in range(family.size):
        if np.all(base_vals[:, i] >= 0) and s[i] < -tol * scale:
            e = SparsePoly(tuple(np.eye(family.size)[i]), family)
            if _certificate_is_sound(e, probes):
                return FeasibilityVerdict(INFEASIBLE, None, e, float(-s[i]), hint, "basis")

    # the grid certificate, at unit max-norm coefficients as poly_from_zeros scales
    r = _shared(_grid_fit, family, s, grid)[3]
    if np.any(r):
        p = SparsePoly(tuple(-r / np.max(np.abs(r))), family)
        val = float(s @ p.a)
        if val < -tol * scale and _certificate_is_sound(p, probes):
            return FeasibilityVerdict(INFEASIBLE, None, p, -val, hint, "dual")

    pos, wts, res, xs, r = _shared(_primal_atoms, family, s, grid, tol * scale)
    if res <= tol * scale and len(pos) <= family.size:
        witness = AtomicMeasure(tuple(zip(map(float, pos), map(float, wts))))
        return FeasibilityVerdict(FEASIBLE, witness, None, float(res), hint, "primal")

    # dual pass, seeded with the engine's atoms, which localize where a
    # certificate must vanish, then with the zeros of the grid certificate
    # (certificate basins can be narrow)
    seeds = [float(p) for p in pos] + _dual_seeds(family, r, xs)
    cert = _dual_search(L, tol=tol, seed=seed, starts=starts, theta_seeds=seeds)
    if cert is not None:
        return FeasibilityVerdict(INFEASIBLE, None, cert[0], float(-cert[1]), hint, "dual")
    return FeasibilityVerdict(UNDECIDED, None, None, float(np.linalg.norm(r)), hint)


def _dual_seeds(family, r, xs):
    """Zero-placement seeds from the NNLS residual r on the grid xs, where
    p = -sum r_i f_i >= 0 has basins, flat at rounding level, at the zeros of
    extremal certificates: one seed per basin, the minimum of each run of
    points below 5% of p's local magnitude (grid ends included), lowest first."""
    vals = family.eval_grid(xs) @ -r
    near_zero = np.concatenate([[0], vals < 0.05 * _local_scale(vals), [0]])
    runs = np.flatnonzero(np.diff(near_zero)).reshape(-1, 2)
    mins = np.array([a + int(np.argmin(vals[a:b])) for a, b in runs], dtype=int)
    return [float(x) for x in xs[mins[np.argsort(vals[mins], kind="stable")[:6]]]]


def _merge_atoms(pos, wts, rel=1e-6):
    if len(pos) == 0:
        return []
    order = np.argsort(pos)
    pos, wts = pos[order], wts[order]
    span = max(pos[-1] - pos[0], 1.0)
    out = [[float(pos[0]), float(wts[0])]]
    for p, w_ in zip(pos[1:], wts[1:]):
        if p - out[-1][0] <= rel * span:
            tot = out[-1][1] + w_
            out[-1][0] = (out[-1][0] * out[-1][1] + p * w_) / tot
            out[-1][1] = tot
        else:
            out.append([float(p), float(w_)])
    return [(p, w_) for p, w_ in out]


def _dual_search(L: MomentFunctional, tol: float, seed: int, starts: int, theta_seeds=()):
    """A sound certificate (poly, value), value < -tol * scale, from the
    extremal search (which minimizes L(p_theta)/scale), or None.

    Each pattern's seeded start runs first, alone, and its first sound end
    point is the certificate.  Otherwise the full multistart runs from a
    fresh rng(seed), and its lowest sound end point is.  End points are
    built by poly_from_zeros.
    """
    family = L.family
    s = L.s
    scale = max(float(np.max(np.abs(s))), 1e-300)
    probes = _probes(family)

    def objective(val, grad):
        return val / scale, grad / scale

    def ends(seeded_only):
        for pattern, theta, _ in search(family, s, objective, np.random.default_rng(seed), starts,
                                        theta_seeds, seeded_only=seeded_only):
            try:
                p = extremal_test_polys(family, pattern, theta)
            except TSystemError:
                continue
            yield p, float(s @ p.a)

    def sound(cert):
        return cert[1] < -tol * scale and _certificate_is_sound(cert[0], probes)

    return (next(filter(sound, ends(seeded_only=True)), None)
            or next(filter(sound, sorted(ends(seeded_only=False), key=lambda c: c[1])), None))


def recover_atoms(
    L: MomentFunctional,
    grid: int = 2001,
    tol: float = 1e-8,
    assume_feasible: bool = False,
) -> AtomicMeasure:
    """Atomic representing measure with at most n+1 atoms.

    The primal engine shared with ``sparse_feasibility``: grid NNLS on a
    working set of columns, optimal on the whole grid -> Caratheodory
    pruning -> polish -> support reduction.  Its last result is kept per
    (family, moments, grid, tol): right after ``sparse_feasibility`` on the
    same functional the engine does not run again, and the measure is that
    call's witness.  The zero functional yields the empty measure; a moment
    residual above tol * scale raises NotFeasible unless ``assume_feasible``.
    """
    s = L.s
    scale = float(np.max(np.abs(s)))
    if scale == 0.0:
        return AtomicMeasure(())
    pos, wts, res, _, _ = _shared(_primal_atoms, L.family, s, grid, tol * scale)
    if len(pos) == 0:
        raise NotFeasible("nonnegative least squares found no support")
    measure = AtomicMeasure(tuple(zip(map(float, pos), map(float, wts))))
    if res > tol * scale and not assume_feasible:
        raise NotFeasible(
            f"moment residual {res:.3e} exceeds {tol:.1e} * scale; "
            "run sparse_feasibility first or pass assume_feasible=True"
        )
    return measure


#: the last result of each function run by _shared, as (key, family, result);
#: the family is held so that the ids of its evaluators in the key stay valid
_last = {}


def _shared(run, family: FamilySpec, s: np.ndarray, grid: int, *args) -> tuple:
    """run(family, s, grid, *args), run once for back-to-back calls with one
    key: ``_grid_fit`` serves the grid certificate and the engine, and
    ``_primal_atoms`` serves ``recover_atoms`` after ``sparse_feasibility``
    on one functional (both are deterministic; only a whole engine run is
    kept).  The key holds params and moments as float64 bytes (array params
    need no hashing) and custom evaluators by id.  The kept arrays are
    read-only."""
    key = (family.variant, np.asarray(family.params, dtype=float).tobytes(), family.domain,
           tuple(map(id, family.evaluators)), np.asarray(s, dtype=float).tobytes(), grid, *args)
    if run not in _last or _last[run][0] != key:
        result = run(family, s, grid, *args)
        for part in result:
            if isinstance(part, np.ndarray):
                part.flags.writeable = False  # handed to the next caller too
        _last[run] = (key, family, result)
    return _last[run][2]


def _grid_fit(family: FamilySpec, s: np.ndarray, grid: int) -> tuple:
    """(xs, A, w, r): grid NNLS min |s - A w| over w >= 0, A = f(xs)^T, by
    ``_working_set_nnls`` from every 10th point, refined twice near its
    support (solved on the support and the new points).  r = s - A w is
    optimal on the final grid xs."""
    lo = family.domain.window()[0]
    hi = np.inf if family.domain.kind == "left_closed_halfline" else family.domain.window()[1]
    xs = _primal_grid(family, grid)
    work = np.union1d(np.arange(0, len(xs), 10), [len(xs) - 1])  # every 10th; then ±10 of its support
    for _round in range(3):
        A = family.eval_grid(xs).T
        w, r = _working_set_nnls(A, s, work, 10 if _round == 0 else 0)
        support = xs[w > 1e-10 * max(float(w.max()), 1e-300)]
        if len(support) == 0 or _round == 2:
            return xs, A, w, r
        step = np.median(np.diff(np.unique(xs)))
        extra = np.concatenate([support + d for d in np.linspace(-step, step, 41)])
        xs = np.unique(np.concatenate([xs, extra]))
        xs = xs[(xs >= lo) & (xs <= hi)]
        work = np.flatnonzero(np.isin(xs, np.concatenate([support, extra])))


def _primal_atoms(family: FamilySpec, s: np.ndarray, grid: int, abs_tol: float) -> tuple:
    """(positions, weights, residual, final grid, r) of a primal witness.

    The shared grid fit (``_grid_fit``); Caratheodory pruning, merge,
    polish, dropping tiny weights, polish again, and support reduction to the
    fewest atoms within ``abs_tol``.  No atoms if NNLS finds no support.
    r = s - A w, the fit's residual, is optimal on its grid.
    """
    lo = family.domain.window()[0]
    hi = None if family.domain.kind == "left_closed_halfline" else family.domain.window()[1]
    xs, A, w, r = _shared(_grid_fit, family, s, grid)
    w = caratheodory_prune(A, w, family.size)
    idx = np.nonzero(w > 0)[0]
    if len(idx) == 0:
        return np.zeros(0), np.zeros(0), float(np.max(np.abs(s))), xs, r
    merged = _merge_atoms(xs[idx], w[idx])
    pos = np.array([p for p, _ in merged])
    wts = np.array([w_ for _, w_ in merged])
    pos, wts, res = _polish_atoms(family, s, pos, wts, lo, hi, abs_tol)
    keep = wts > 1e-12 * float(wts.max())
    pos, wts = pos[keep], wts[keep]
    if len(pos):
        pos, wts, res = _polish_atoms(family, s, pos, wts, lo, hi, abs_tol)
    pos, wts, res = _reduce_support(family, s, pos, wts, res, lo, hi, abs_tol)
    return pos, wts, res, xs, r


def _working_set_nnls(A, s, work, reach=0):
    """(w, r): min |s - A w| over w >= 0, by scipy's nnls on a few columns
    ``work`` of A/colnorm.  After each solve the optimality condition
    g = (A/colnorm)^T r <= 10 eps |s| (r = s - A w) is checked on every
    column, and the 32 largest violators with their two grid neighbours join
    ``work``; once none is left (or, were nnls to stop short, only ones in
    ``work``), the columns within ``reach`` of the support join once, since
    g at its rounding level cannot tell a coarse fit from the optimum."""
    colnorm = np.linalg.norm(A, axis=0)
    colnorm[colnorm == 0] = 1.0
    An = A / colnorm
    tol = 10 * np.finfo(float).eps * float(np.linalg.norm(s))
    inw = np.isin(np.arange(A.shape[1]), work)
    while True:
        work = np.flatnonzero(inw)
        w = np.zeros(A.shape[1])
        w[work] = nnls(An[:, work], s, maxiter=10 * len(work))[0] / colnorm[work]
        r = s - A[:, work] @ w[work]
        g = An.T @ r
        top = np.flatnonzero(g > tol)
        top = top[np.argsort(g[top])[-32:]]
        add = np.clip(np.concatenate([top - 1, top, top + 1]), 0, len(w) - 1)
        if reach and np.all(inw[add]):
            add = np.clip(np.flatnonzero(w)[:, None] + np.arange(-reach, reach + 1), 0, len(w) - 1)
            reach = 0
        if np.all(inw[add]):
            return w, r
        inw[add] = True


def _reduce_support(family, s, pos, wts, res, lo, hi, abs_tol):
    """Try smaller atom counts (toward the principal representation)."""
    keep = wts > 1e-9 * max(float(np.sum(wts)), 1e-300)
    if not np.all(keep) and np.any(keep):
        p_try, w_try, r_try = _polish_atoms(family, s, pos[keep], wts[keep], lo, hi, abs_tol)
        if r_try <= max(abs_tol, res):
            pos, wts, res = p_try, w_try, r_try
    best = (pos, wts, res)
    for k in range(1, len(pos)):
        p_try, w_try = _merge_to_k(pos, wts, k)
        p_try, w_try, r_try = _polish_atoms(family, s, p_try, w_try, lo, hi, abs_tol)
        if r_try <= abs_tol and np.all(w_try > 0) and len(np.unique(np.round(p_try, 12))) == k:
            return p_try, w_try, r_try
    return best


def _merge_to_k(pos, wts, k):
    """Greedy weighted merge of adjacent atoms down to k atoms."""
    items = sorted(zip(pos, wts))
    pts = [list(it) for it in items]
    while len(pts) > k:
        gaps = [pts[i + 1][0] - pts[i][0] for i in range(len(pts) - 1)]
        i = int(np.argmin(gaps))
        tot = pts[i][1] + pts[i + 1][1]
        pts[i] = [(pts[i][0] * pts[i][1] + pts[i + 1][0] * pts[i + 1][1]) / tot, tot]
        del pts[i + 1]
    return np.array([p for p, _ in pts]), np.array([w_ for _, w_ in pts])
