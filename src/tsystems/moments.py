"""Hankel criteria, sparse truncated moment feasibility, atomic recovery.

Feasibility runs a primal/dual pair on one grid fit: NNLS on a few hundred
columns of the moment curve, checked on every column by (A/colnorm)^T r <=
10 eps |s| for its residual r = s - A w; with w . A^T r = 0, p = -sum r_i f_i
is >= 0 on the grid and L(p) = -|r|^2.  That p is the first certificate
tried.  The primal engine, shared with atomic recovery, first polishes one
atom per cluster of the fit's support; a fit within tolerance, cut to the
fewest atoms by the T-system atom counts and one square Newton solve for the
lower principal representation, is the witness.  Otherwise the dual
minimizes L over the extremal nonnegative polynomials (index-n zero
patterns) by the gradient search of ``extremal`` on the zero positions,
seeded with those atoms and p's basins, first from the seeded start alone,
then (after the whole engine) from many; a negative minimum that passes the
soundness checks here is the certificate.  |r| is the gap reported when no
side passes and the verdict is undecided; a numeric tool must admit a gap
since the exact conditions quantify over continua.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .errors import NonDifferentiable, NotFeasible, TooShort, TSystemError
from .colloc import _theory_verdict
from .extremal import _search_window, extremal_test_polys, search
from .family import CLOSED_INTERVAL, REAL_LINE, FamilySpec
from .solvers import _bounded_lm, _homotopy, _newton
from .zeros import (
    NODAL,
    SparsePoly,
    ZeroConfig,
    _local_scale,
    _polish_on_derivative,
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
        return MomentFunctional.from_measure(family, self.atoms).s

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
    lo, hi = _search_window(family)
    if family.domain.kind == "left_closed_halfline":
        geo = lo + np.geomspace(1e-4, hi - lo, points // 4)
        return np.unique(np.concatenate([np.linspace(lo, hi, points), geo]))
    return np.linspace(lo, hi, points)


def _polish_atoms(family: FamilySpec, s: np.ndarray, positions, weights, lo, hi, abs_tol):
    """(positions, weights, moment residual) polished by ``_bounded_lm`` on
    the row-scaled moment equations |(V w - s)/rsc|^2 (moment rows can span
    many decades), positions in [lo, hi], weights >= 0, at most 400
    evaluations.  An ill-conditioned fit nears the rounding floor by tiny
    steps: once within 1e-2 * abs_tol, a trial that does not halve the cost
    ends the polish."""
    x, w = np.asarray(positions, dtype=float), np.asarray(weights, dtype=float)
    k = len(x)
    if k == 0:
        return x, w, float(np.max(np.abs(s)))
    rsc = np.maximum(np.abs(s), 1e-6 * max(float(np.max(np.abs(s))), 1e-300))

    def resid(z):
        return (family.eval_grid(z[:k]).T @ z[k:] - s) / rsc

    def jac(z):
        D = _safe_deriv_cols(family, z[:k])
        return np.hstack([D * z[k:], family.eval_grid(z[:k]).T]) / rsc[:, None]

    def settled(r):
        return float(np.max(np.abs(r * rsc))) <= 1e-2 * abs_tol

    z = _bounded_lm(resid, jac, np.concatenate([x, np.maximum(w, 0.0)]),
                    np.concatenate([np.full(k, lo), np.zeros(k)]),
                    np.concatenate([np.full(k, hi), np.full(k, np.inf)]), 400, settled)
    return z[:k], z[k:], _moment_res(family, s, z[:k], z[k:])


def _safe_deriv_cols(family: FamilySpec, x: np.ndarray) -> np.ndarray:
    """Position-derivative columns; an atom at 0 whose derivative does not
    exist (x^alpha, alpha not natural) gets a zero column (frozen)."""
    try:
        return family.eval_grid(x, 1).T
    except NonDifferentiable:
        cols = np.zeros((family.size, len(x)))
        cols[:, x != 0] = family.eval_grid(x[x != 0], 1).T
        return cols


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
        polished = [_polish_on_derivative(p, float(x), 2, lo, hi, hi - lo) for x in minima]
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
    grid with L(p) = -|r|^2 / max |r_i|; (3) the clustered stage of the
    engine of ``recover_atoms``, one atom per cluster of the fit's support,
    polished: where it matches the moments to tol * scale, the witness is
    the whole engine's (its support reduced to the fewest atoms), kept per
    (family, moments, grid, tol) for a next ``recover_atoms``; (4) a
    gradient search on the zero positions of extremal nonnegative
    polynomials (dL from the node null vector, implicit differentiation of
    B a = 0), one start per pattern seeded by the clustered atoms, then one
    point per near-zero basin of p (read only where fewer atoms lie inside
    the window); (5) the whole engine's witness, where step 3 did not run
    it; (6) the full multistart, adding a coarse scan and ``starts`` random
    placements drawn from ``seed``.  Steps 2, 4 and 6 give route "dual"
    with a certificate below -tol * scale that passes
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

    # cheap certificate: a basis direction that is nonnegative on the domain
    xs0 = _primal_grid(family, 201)
    base_vals = family.eval_grid(xs0)
    probes = _probes(family)
    for i in range(family.size):
        if np.all(base_vals[:, i] >= 0) and s[i] < -tol * scale:
            e = SparsePoly(tuple(np.eye(family.size)[i]), family)
            if _certificate_is_sound(e, probes):
                return FeasibilityVerdict(INFEASIBLE, None, e, float(-s[i]), "basis")

    # the grid certificate, at unit max-norm coefficients as poly_from_zeros scales
    xs, A, _, r = _shared(_grid_fit, family, s, grid)
    if np.any(r):
        p = SparsePoly(tuple(-r / np.max(np.abs(r))), family)
        val = float(s @ p.a)
        if val < -tol * scale and _certificate_is_sound(p, probes):
            return FeasibilityVerdict(INFEASIBLE, None, p, -val, "dual")

    # seeds, built once a dual search runs: the clustered atoms, which localize
    # where a certificate must vanish, then the grid certificate's basins (they can be narrow)
    clustered, _, res = _shared(_clustered_atoms, family, s, grid, tol * scale)[:3]
    seeds = None
    for seeded_only in (True, False):
        if res <= tol * scale or not seeded_only:
            pos, wts, res = _shared(_primal_atoms, family, s, grid, tol * scale)
            if res <= tol * scale and len(pos) <= family.size:
                witness = AtomicMeasure(tuple(zip(map(float, pos), map(float, wts))))
                return FeasibilityVerdict(FEASIBLE, witness, None, float(res), "primal")
        if seeds is None:
            seeds = [float(p) for p in clustered] + _dual_seeds(xs, A, r)
        cert = _dual_search(L, tol, seed, starts, seeds, seeded_only)
        if cert is not None:
            return FeasibilityVerdict(INFEASIBLE, None, cert[0], float(-cert[1]), "dual")
    return FeasibilityVerdict(UNDECIDED, None, None, float(np.linalg.norm(r)))


def _dual_seeds(xs, A, r):
    """Zero-placement seeds from the grid fit's NNLS residual r on its grid xs
    (A = f(xs)^T), where p = -sum r_i f_i >= 0 has basins, flat at rounding
    level, at the zeros of extremal certificates: one seed per basin, the
    minimum of each run of points below 5% of p's local magnitude (grid ends included), lowest first."""
    vals = A.T @ -r
    near_zero = np.concatenate([[0], vals < 0.05 * _local_scale(vals), [0]])
    runs = np.flatnonzero(np.diff(near_zero)).reshape(-1, 2)
    mins = np.array([a + int(np.argmin(vals[a:b])) for a, b in runs], dtype=int)
    return [float(x) for x in xs[mins[np.argsort(vals[mins], kind="stable")[:6]]]]


def _dual_search(L: MomentFunctional, tol: float, seed: int, starts: int, theta_seeds=(),
                 seeded_only: bool = False):
    """A sound certificate (poly, value), value < -tol * scale, from the
    extremal search (which minimizes L(p_theta)/scale), or None.

    With ``seeded_only`` each pattern's seeded start runs alone, and its
    first sound end point is the certificate.  Otherwise the full
    multistart runs from a fresh rng(seed), and its lowest sound end point
    is.  End points are built by poly_from_zeros.
    """
    family = L.family
    s = L.s
    scale = max(float(np.max(np.abs(s))), 1e-300)
    probes = _probes(family)

    def objective(val, grad):
        return val / scale, grad / scale

    def ends():
        for pattern, theta, _ in search(family, s, objective, np.random.default_rng(seed), starts,
                                        theta_seeds, seeded_only=seeded_only):
            try:
                p = extremal_test_polys(family, pattern, theta)
            except TSystemError:
                continue
            yield p, float(s @ p.a)

    def sound(cert):
        return cert[1] < -tol * scale and _certificate_is_sound(cert[0], probes)

    return next(filter(sound, ends() if seeded_only else sorted(ends(), key=lambda c: c[1])), None)


def recover_atoms(
    L: MomentFunctional,
    grid: int = 2001,
    tol: float = 1e-8,
    assume_feasible: bool = False,
) -> AtomicMeasure:
    """Atomic representing measure with at most n+1 atoms.

    The primal engine shared with ``sparse_feasibility``: grid NNLS on a
    working set of columns, optimal on the whole grid, whose basic solution
    has at most n+1 support points (Caratheodory) -> one atom per cluster
    of grid columns, polished (the whole support where that misses tol)
    -> weights at most 1e-9 of the total dropped, the rest polished again
    only where one was or tol is missed -> the fewest atoms (``_reduce_support``: on a
    T-system the atom counts of the theory and the lower principal
    representation), in position order.  Its last result is kept per
    (family, moments, grid, tol): right after ``sparse_feasibility`` on the
    same functional the engine does not run again, and the measure is that
    call's witness.  The zero functional yields the empty measure; a moment
    residual above tol * scale raises NotFeasible unless ``assume_feasible``.
    """
    s = L.s
    scale = float(np.max(np.abs(s)))
    if scale == 0.0:
        return AtomicMeasure(())
    pos, wts, res = _shared(_primal_atoms, L.family, s, grid, tol * scale)
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
    key: ``_grid_fit`` serves the grid certificate and the engine,
    ``_clustered_atoms`` the dual search's seeds and the engine, and
    ``_primal_atoms`` serves ``recover_atoms`` after ``sparse_feasibility``
    on one functional (all are deterministic).  The key holds params and
    moments as float64 bytes (array params need no hashing) and custom
    evaluators by id.  The kept arrays are read-only."""
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
    support (solved on the support and the refinement's points).  Each grid
    point is evaluated once: the rows f(x) and column norms of the grid so
    far are kept, and a round evaluates only its points not already on the
    grid (exact equality, as ``np.unique``) and merges them in order.
    Points 1 ulp apart stay separate columns until the return (ROADMAP
    item 6).  r = s - A w is optimal on the final grid xs."""
    lo, hi = _polish_box(family)
    xs = _primal_grid(family, grid)
    rows = family.eval_grid(xs)
    norms = np.linalg.norm(rows, axis=1)
    inw = np.zeros(len(xs), dtype=bool)
    inw[::10] = inw[-1] = True  # every 10th; then ±10 of its support
    for _round in range(3):
        A = rows.T  # the layout steers the rounding of An^T r and of nnls' input
        w, r = _working_set_nnls(A, norms, s, inw, 10 if _round == 0 else 0)
        inw = w > 1e-10 * max(float(w.max()), 1e-300)  # the support
        if not inw.any() or _round == 2:
            # one column per point: the refinement's copies of a point, equal to rounding, are it
            keep = np.diff(xs, prepend=-np.inf) > 1e-12 * (xs[-1] - xs[0])
            return xs[keep], A[:, keep], np.bincount(np.cumsum(keep) - 1, w), r
        step = np.median(np.diff(xs))
        extra = np.unique(xs[inw] + np.linspace(-step, step, 41)[:, None])
        extra = extra[(extra >= lo) & (extra <= hi)]
        at = np.minimum(np.searchsorted(xs, extra), len(xs) - 1)
        old = xs[at] == extra
        inw[at[old]] = True
        new_rows = family.eval_grid(extra[~old])
        xs = np.concatenate([xs, extra[~old]])
        order = np.argsort(xs, kind="stable")  # two sorted runs of distinct points
        xs, inw = xs[order], np.concatenate([inw, np.ones(len(new_rows), dtype=bool)])[order]
        rows = np.concatenate([rows, new_rows])[order]
        norms = np.concatenate([norms, np.linalg.norm(new_rows, axis=1)])[order]


def _polish_box(family: FamilySpec) -> tuple:
    """(lo, hi) bounds of the atoms' positions (hi = inf on a half-line)."""
    lo, hi = family.domain.window()
    return lo, np.inf if family.domain.kind == "left_closed_halfline" else hi


def _clustered_atoms(family: FamilySpec, s: np.ndarray, grid: int, abs_tol: float) -> tuple:
    """(positions, weights, residual, support, support weights), the
    engine's first stage: the shared grid fit (``_grid_fit``), a basic NNLS
    solution with at most n+1 support points (its positive columns are
    linearly independent); one atom per run of them with no grid point
    strictly between, its summed weight at its weighted-mean position,
    polished once (``_polish_atoms``).  Around each atom of a boundary
    functional the fit holds two neighbouring columns, which as two atoms
    make an ill-conditioned polish.  No atoms if NNLS finds no support."""
    xs, _, w, _ = _shared(_grid_fit, family, s, grid)
    support, weights = xs[w > 0], w[w > 0]
    idx = np.flatnonzero(w > 1e-10 * w.max())  # the support as _grid_fit reads it
    if len(idx) == 0:
        return support, weights, float(np.max(np.abs(s))), support, weights
    new = np.diff(idx, prepend=-2) > 1  # a grid point lies between this one and the last
    run = np.cumsum(new) - 1
    first = xs[idx][new]
    wts = np.bincount(run, w[idx])
    pos = first + np.bincount(run, (xs[idx] - first[run]) * w[idx]) / wts  # a lone point stays put
    return (*_polish_atoms(family, s, pos, wts, *_polish_box(family), abs_tol), support, weights)


def _primal_atoms(family: FamilySpec, s: np.ndarray, grid: int, abs_tol: float) -> tuple:
    """(positions, weights, residual) of a primal witness.

    The clustered stage (``_clustered_atoms``), or, where it merged
    columns and missed ``abs_tol`` (close atoms may need two), the polish
    (``_polish_atoms``) of the grid fit's whole support; then dropping
    weights at most 1e-9 of the total, polished again only where that drops
    an atom or the witness misses ``abs_tol``, and support reduction to the
    fewest atoms within ``abs_tol`` (``_reduce_support``), in position
    order.  No atoms if NNLS finds no support.
    """
    lo, hi = _polish_box(family)
    pos, wts, res, support, weights = _shared(_clustered_atoms, family, s, grid, abs_tol)
    if len(pos) == 0:
        return pos, wts, res
    if res > abs_tol and len(pos) < len(support):
        pos, wts, res = _polish_atoms(family, s, support, weights, lo, hi, abs_tol)
    keep = wts > 1e-9 * float(np.sum(wts))
    if res > abs_tol or not keep.all():
        pos, wts, res = _polish_atoms(family, s, pos[keep], wts[keep], lo, hi, abs_tol)
    pos, wts, res = _reduce_support(family, s, pos, wts, res, lo, hi, abs_tol)
    order = np.argsort(pos)
    return pos[order], wts[order], res


def _working_set_nnls(A, colnorm, s, inw, reach=0):
    """(w, r): min |s - A w| over w >= 0, by scipy's nnls on the columns of
    A/colnorm marked in the boolean mask ``inw`` (zero norms read as 1),
    which grows in place.  After each solve the optimality condition
    g = (A/colnorm)^T r <= 10 eps |s| (r = s - A w) is checked on every
    column, and the 32 largest violators with their two grid neighbours join
    the mask; once none is left (or, were nnls to stop short, only ones in
    it), the columns within ``reach`` of the support join once, since g at
    its rounding level cannot tell a coarse fit from the optimum."""
    colnorm = np.where(colnorm == 0, 1.0, colnorm)
    An = A / colnorm
    tol = 10 * np.finfo(float).eps * float(np.linalg.norm(s))
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
    """The fewest atoms within abs_tol from k, by the counting theory of
    exact representations on a T-system of N members (``_theory_verdict``;
    Karlin & Studden, ch. II), which apply once the k atoms match s within
    abs_tol.  Haar: another one has over N - k atoms, so 2k - 1 <= N atoms
    are the fewest.  Index: on [a, b], and on [a, inf) with the top member
    dominating, an interior functional has index >= N (an interior atom
    counts 2, an end 1), so no count below h = ceil(N/2) is tried and
    ``_lower_principal`` solves for h.  The other open counts get polish
    trials, all from 1 up where no theorem applies, where the k atoms miss
    abs_tol, or near the cone's boundary, where a tolerance lets fewer atoms
    fit: one merge (``_merge_to_k``) matches s to 1e3 abs_tol."""
    N, k, kind, h = family.size, len(pos), family.domain.kind, -(-family.size // 2)
    T = res <= abs_tol and _theory_verdict(family, "T", *family.domain.window())
    near = T and k > 1 and _moment_res(family, s, *_merge_to_k(pos, wts, k - 1)) <= 1e3 * abs_tol
    if T and not near and 2 * k - 1 <= N:
        return pos, wts, res
    index = T and kind != REAL_LINE and (kind == CLOSED_INTERVAL or family.variant != "rational")
    for j in range(1 if near or not T else h if index else N + 1 - k, k):
        if index and j == h and (principal := _lower_principal(family, s, pos, wts, lo, hi, abs_tol)):
            return principal
        p_try, w_try = _merge_to_k(pos, wts, j)
        p_try, w_try, r_try = _polish_atoms(family, s, p_try, w_try, lo, hi, abs_tol)
        if r_try <= abs_tol and np.all(w_try > 0) and len(np.unique(np.round(p_try, 12))) == j:
            return p_try, w_try, r_try
    return pos, wts, res


def _moment_res(family: FamilySpec, s: np.ndarray, x, w) -> float:
    """max |sum_j w_j f(x_j) - s|, the residual a witness is judged by."""
    return float(np.max(np.abs(family.eval_grid(np.asarray(x, dtype=float)).T @ w - s)))


def _lower_principal(family, s, pos, wts, lo, hi, abs_tol):
    """(positions, weights, residual) of the lower principal representation
    within abs_tol, else None: N/2 interior atoms, or an atom at lo and
    (N - 1)/2 interior ones.  ``_newton`` on the square row-scaled moment
    system in the interior positions and all weights (Jacobian [D w, V]),
    from equal weights at Chebyshev nodes over the middle 98% of the
    support's weight, widened to its mean +- one standard deviation (odd N:
    1% of the weight at lo), along s0 + t (s - s0), s0 the start's moments,
    in steps halved where Newton fails (``_homotopy``; the residual is linear
    in t at fixed z, so a step's first Newton step is the tangent step): inside
    the cone the representation is unique and continuous in s."""
    m, o = divmod(family.size, 2)
    xs, ws = np.asarray(pos)[np.argsort(pos)], np.asarray(wts)[np.argsort(pos)]
    a, b = xs[np.minimum(np.searchsorted(np.cumsum(ws) / np.sum(ws), [0.01, 0.99]), len(xs) - 1)]
    mean = np.sum(ws * xs) / np.sum(ws)
    sd = np.sqrt(np.sum(ws * (xs - mean) ** 2) / np.sum(ws))
    a, b = min(a, mean - sd), max(b, mean + sd)
    gap = 1e-3 * (_search_window(family)[1] - lo)
    x0 = (a + b) / 2 - max(b - a, gap) / 2 * np.cos((np.arange(m) + 0.5) * np.pi / m)
    x0 = np.concatenate([[lo] * o, np.clip(x0, lo + gap, hi - gap)])
    w0 = np.concatenate([[1e-2 * np.sum(ws)] * o, np.full(m, np.sum(ws) / m)])
    rsc = np.maximum(np.abs(s), 1e-6 * np.max(np.abs(s)))

    def system(z, target):
        V = family.eval_grid(np.concatenate([x0[:o], z[:m]])).T
        D = _safe_deriv_cols(family, z[:m]) * z[m + o:]
        return (V @ z[m:] - target) / rsc, lambda: np.hstack([D, V]) / rsc[:, None]

    def admissible(z):
        return bool(np.all(z[m:] > 0) and np.all(np.diff(np.concatenate([[lo], z[:m], [hi]])) > 0))

    def advance(t, tn, z):
        # max |R| below abs_tol / max |s| puts every row within abs_tol
        return _newton(lambda z_: system(z_, s0 + tn * (s - s0)), z,
                       abs_tol / np.max(np.abs(s)), 30, admissible, 2.0**-6)[:2]

    z, s0 = np.concatenate([x0[o:], w0]), family.eval_grid(x0).T @ w0
    z, t = _homotopy(advance, z, 1.0, 2.0, 1.0, min_step=2.0**-6) if admissible(z) else (z, 0.0)
    x, w = np.concatenate([x0[:o], z[:m]]), z[m:]
    return (x, w, res) if t == 1.0 and (res := _moment_res(family, s, x, w)) <= abs_tol else None


def _merge_to_k(pos, wts, k):
    """Greedy merge of adjacent atoms down to k atoms, each pair into its
    summed weight at its weighted mean: the pair adding the least spread
    w_i w_j (x_j - x_i)^2 / (w_i + w_j), so that a light atom joins a
    neighbour before two heavy ones meet."""
    pts = [list(it) for it in sorted(zip(pos, wts))]
    while len(pts) > k:
        cost = [(b[0] - a[0]) ** 2 * a[1] * b[1] / (a[1] + b[1]) for a, b in zip(pts, pts[1:])]
        i = int(np.argmin(cost))
        tot = pts[i][1] + pts[i + 1][1]
        pts[i] = [(pts[i][0] * pts[i][1] + pts[i + 1][0] * pts[i + 1][1]) / tot, tot]
        del pts[i + 1]
    return np.array([p for p, _ in pts]), np.array([w_ for _, w_ in pts])
