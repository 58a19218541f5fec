"""Karlin decompositions f = f_* + f^* on [a,b], [0,inf), and the real line.

The solver is Newton on the tangency system: the unknowns are the interior
double zeros of f_* and the touch points of f - f_*, the equations are
value/derivative vanishing at the touch points plus the endpoint condition
(on the real line, the vanishing x^(n-1) coefficient of f - f_*).  One
tangency system, ``_TangencySolver``, and one damped Newton driver,
``_newton``, serve every domain.  The Jacobian is analytic: the f_* columns
come from implicit differentiation of the node null vector
(colloc.null_vector_tangent).  Newton halves its step until the residual
falls and keeps taking full steps past its tolerance while they lower it,
so every solve that converges ends near the rounding floor; a stall above
the tolerance is not converged.  A direct start also ends, not converged,
once its residual above the tolerance has not halved over the last
DIRECT_CRAWL accepted steps: such a start crawls along the edge of the
interlacing region and does not recover.  When the direct starts fail, the
same driver follows a continuation from a surrogate whose decomposition is
known exactly: a sum of the two pattern polynomials, which by uniqueness is
its own decomposition.  Continuation steps take no such cut, and each
intermediate one stops once below the tolerance; the final solve on f runs
on towards the rounding floor.

One hypothesis on the zeros serves every domain (``_shared_zeros``): the
zeros that f shares with both parts number fewer than n with multiplicity
(else TooManyZeros), and each one that is not a closed end of the domain has
even multiplicity (else OddInteriorMultiplicity), checked in that order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .colloc import node_points, node_rows, null_vector, null_vector_tangent
from .errors import (
    InvariantViolation,
    LeadingCoefficientNonpositive,
    NegativeLeading,
    NegativeSomewhere,
    NoConvergence,
    NotPositive,
    OddDegree,
    OddInteriorMultiplicity,
    TooManyZeros,
    ValueAtZeroNonpositive,
)
from .extremal import _pattern_nodes, principal_patterns
from .family import FamilySpec, halfline_xmax
from .solvers import _homotopy, _newton
from .zeros import NODAL, NON_NODAL, SparsePoly, ZeroConfig, _local_scale, count_zeros

CONVERGED_TOL = 1e-10
TOUCH_LOCAL_TOL = 1e-6  # solutions reach 2e-10 on degree-8 [a, b] draws; stalls reach 1
POS_GRID = 5000
SHARED_ZERO_TOL = 1e-9  # count_zeros' tolerance for the zeros both parts share
# A direct start whose max |R| above tol has not halved over this many accepted
# steps has failed: failed starts crawl at about 1% a step for up to 40
# iterations.  It falls through to the next start or continuation.
DIRECT_CRAWL = 5


@dataclass(frozen=True)
class KarlinDecomposition:
    """The unique pair (f_*, f^*) with interlacing full-index zero sets.

    ``touch_residual`` is the max-norm of the tangency system at the solution
    relative to max |f| on the solver's grid: [a, b], the half-line's working
    span, or on the real line the window that holds every root of f.
    """

    f_lower: SparsePoly
    f_upper: SparsePoly
    zeros_lower: ZeroConfig
    zeros_upper: ZeroConfig
    iterations: int
    converged: bool
    solver_path: str
    touch_residual: float

    def to_dict(self) -> dict:
        return {
            "f_lower": self.f_lower.to_dict(),
            "f_upper": self.f_upper.to_dict(),
            "zeros_lower": self.zeros_lower.to_dict(),
            "zeros_upper": self.zeros_upper.to_dict(),
            "iterations": self.iterations,
            "converged": self.converged,
            "solver_path": self.solver_path,
            "touch_residual": self.touch_residual,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _merge_nodes(nodes) -> tuple:
    """Sort (point, mult) pairs and merge coincident points."""
    out: list[list] = []
    for x, m in sorted(nodes):
        if out and math.isclose(out[-1][0], x, rel_tol=0, abs_tol=1e-14):
            out[-1][1] += m
        else:
            out.append([float(x), int(m)])
    return tuple((p, m) for p, m in out)


def _inadmissible():
    raise np.linalg.LinAlgError("no Jacobian at a point without a solution")


def _interlaced(first, second, lo, hi, eps) -> bool:
    """lo < first_1 < second_1 < first_2 < ... < hi, every gap above eps.

    Plain floats: the arrays hold at most a few entries, and this runs on
    every trial step of Newton's line search.
    """
    seq = [float(lo)] * (len(first) + len(second) + 2)
    seq[1:-1:2], seq[2:-1:2], seq[-1] = sorted(first.tolist()), sorted(second.tolist()), float(hi)
    return all(b - a > eps for a, b in zip(seq, seq[1:]))


class _TangencySolver:
    """Tangency system, Newton starts and fallbacks for every domain's patterns.

    z holds the m double zeros xs of f_* and then the touch points ys of
    f - f_*.  The parts' zero patterns are ``extremal.principal_patterns``
    of n_eff, with the shared zeros merged into both.  f_* = c P, with P the
    null vector of the lower pattern's node rows and c = (h.f)/(h.P) fixed
    by the pin h: the row of f^(k_hi)(hi) on [a,b], else the top
    coefficient.  The real line is lo = -inf, hi = None; its check grid is a
    window holding every root of f.
    ``system`` gives the residual and its analytic Jacobian; ``newton`` runs
    _newton on it.  ``solve`` tries Newton from Chebyshev and equispaced
    starts ("newton:direct*"), each given up once it crawls (DIRECT_CRAWL),
    then continuation from the Chebyshev layout ("homotopy-cheb"), and returns
    the KarlinDecomposition with the Newton iterations of the winning path.
    The shared zeros fix n_eff = n - r, the count of free zeros: m = n_eff // 2
    double zeros of f_*.
    """

    def __init__(self, family: FamilySpec, f: np.ndarray, shared: tuple, grid: np.ndarray):
        self.family = family
        self.f = np.asarray(f, dtype=float)
        self.shared = shared
        n_eff = family.order - sum(m for _, m in shared)
        self.even = n_eff % 2 == 0
        self.m = n_eff // 2
        self.lo = lo = family.domain.inf  # -inf on the real line
        self.hi = hi = family.domain.b  # None on the half-line and the real line
        self.grid = grid
        self.grid_rows = family.eval_grid(grid)  # basis on the check grid, reused
        self.values = self.grid_rows @ self.f
        self.local = _local_scale(self.values)
        self.scale = float(np.max(self.local))
        self.width = (hi - lo) if hi is not None else max(1.0, 2 * float(grid[-1] - grid[0]))
        k_lo = next((m for z, m in shared if math.isclose(z, lo, abs_tol=1e-14)), 0)
        if hi is not None:
            k_hi = next((m for z, m in shared if math.isclose(z, hi, abs_tol=1e-14)), 0)
            self.pin_row = family.eval_grid([hi], k_hi)[0]
        else:
            self.pin_row = np.eye(family.size)[-1]
        if not self.even:
            self.lo_row = np.zeros((0, family.size))
        elif math.isinf(lo):  # f^* has degree n - 2: no x^(n-1) term in f - f_*
            self.lo_row = np.eye(family.size)[-2:-1]
        else:
            self.lo_row = family.eval_grid([lo], k_lo)
        lower, upper = principal_patterns(family.domain.kind, n_eff)
        # fixed zeros of f_*, ahead of its double zeros in the node rows
        self.lower_fixed = _merge_nodes(list(shared) + _pattern_nodes(family, lower, ())[1])
        self.fixed_pts, orders = node_points(self.lower_fixed)
        self.upper_family, self.upper_fixed = _pattern_nodes(family, upper, ())
        # system's eval_grid block: fixed_pts, each x twice, xs, ys three times
        m, k = self.m, self.m - 1 if self.even and self.m else self.m
        self.orders = np.array(orders + [0, 1] * m + [2] * m + [0] * k + [1] * k + [2] * k, dtype=int)
        self.tangent_rows = len(orders) + 1 + 2 * np.arange(m)
        # flat positions in J of the rows d(ys), d'(ys) at the touch points' columns, sorted
        self.touch_flat = list((len(self.lo_row) + np.arange(k) + np.array([[0], [k]])) * (m + k) + m)
        self.seen_lower = {}  # f_* = c P of f at each z system evaluated, by z's bytes

    # -- patterns -------------------------------------------------------------

    def lower_nodes(self, xs) -> tuple:
        return self.lower_fixed + tuple((float(x), 2) for x in np.sort(xs))

    def upper_nodes(self, ys) -> tuple:
        return _merge_nodes([*self.shared, *((y, 2) for y in np.sort(ys)), *self.upper_fixed])

    def f_lower(self, z) -> np.ndarray:
        """f_* of f at z: system's, where it evaluated z for f, else from the node rows."""
        if (fl := self.seen_lower.get(z.tobytes())) is None:
            P = null_vector(node_rows(self.family, self.lower_nodes(z[: self.m])))
            fl = (self.pin_row @ self.f) / (self.pin_row @ P) * P
        return fl

    def upper_pattern_poly(self, ys) -> np.ndarray:
        """Unit-scale f^*-pattern polynomial on the upper pattern's
        sub-family, embedded in the full family."""
        Q = null_vector(node_rows(self.upper_family, self.upper_nodes(ys)))
        out = np.zeros(self.family.size)
        out[: len(Q)] = Q
        return out

    # -- the tangency system -----------------------------------------------------

    def system(self, z, fc):
        """Residual at z and a callable for its Jacobian.

        With d = fc - f_*, the residual is d^(k_lo)(lo) for even n (the
        x^(n-1) coefficient of d on the real line), then d(ys) and d'(ys).
        A touch point y moves only its own two rows, by d'(y) and d''(y).
        A double zero x moves f_* = c P by
        c (P' - (h.P'/h.P) P), the second term from the pin scale c, with P'
        from null_vector_tangent.
        """
        m = self.m
        zl = z.tolist()  # a few points: sorted as floats, as a list
        xs, ys, k = sorted(zl[:m]), sorted(zl[m:]), len(zl) - m
        # one eval_grid: the node rows of f_*, f''(xs) and f, f', f'' at ys
        pts = self.fixed_pts + [x for x in xs for _ in (0, 1)] + xs + ys * 3
        block, nb = self.family.eval_grid(pts, self.orders), len(self.fixed_pts) + 2 * m
        B, second, Y = block[:nb], block[nb : nb + m], block[nb + m :]
        P = null_vector(B)
        h = self.pin_row
        rows = np.concatenate((self.lo_row, Y[: 2 * k]))
        hP = h @ P
        if hP == 0:  # no f_* = c P meets the pin (P = 0 where nodes coincide)
            return np.full(len(rows), np.inf), _inadmissible
        c = (h @ fc) / hP
        cP = c * P  # f_lower's bits: its node rows equal B's rows
        if fc is self.f:
            self.seen_lower[z.tobytes()] = cP
        d = fc - cP
        R = rows @ d

        def jac():
            dP = null_vector_tangent(B, P, self.tangent_rows, second)
            J = np.zeros((len(R), len(z)))
            J[:, z[:m].argsort()] = -c * rows @ (dP - P[:, None] * ((h @ dP) / hP))  # np.outer's bits
            oy, (t1, t2), flat = z[m:].argsort(), self.touch_flat, J.ravel()
            flat[t1 + oy] = Y[k : 2 * k] @ d
            flat[t2 + oy] = Y[2 * k :] @ d
            return J

        return R, jac

    def phase_ok(self, z) -> bool:
        xs, ys = z[: self.m], z[self.m :]
        first, second = (xs, ys) if self.even else (ys, xs)
        hi = self.hi if self.hi is not None else math.inf
        return _interlaced(first, second, self.lo, hi, 1e-13 * self.width)

    def newton(self, z, fc, tol, maxit=40, crawl=0, floor=True):
        """_newton on the system for fc; tol and the residual are relative to max |fc|."""
        self.seen_lower.clear()
        sc = float(np.abs(self.values if fc is self.f else self.grid_rows @ fc).max())
        z, ok, it, nR = _newton(
            lambda zz: self.system(zz, fc), z, tol * sc, maxit, self.phase_ok, crawl=crawl, floor=floor)
        return z, ok, it, nR / sc

    # -- initial configurations ------------------------------------------------
    # Both starts spread over the check grid: [a, b] itself, the half-line's
    # working span, or the real line's root window.

    def chebyshev_init(self) -> np.ndarray:
        lo = float(self.grid[0])
        w = float(self.grid[-1]) - lo
        m = self.m
        xs = lo + w * (1 - np.cos((2 * np.arange(1, m + 1) - 1) / (2 * m) * np.pi)) / 2
        return lo + (xs - lo) * 0.8 + 0.1 * w

    def equispaced_init(self) -> np.ndarray:
        lo, hi = float(self.grid[0]), float(self.grid[-1])
        m = self.m
        return lo + (hi - lo) * np.arange(1, m + 1) / (m + 1)

    def ys_for(self, xs) -> np.ndarray:
        xs = np.sort(xs)
        if self.even:
            return (xs[:-1] + xs[1:]) / 2 if self.m >= 1 else np.array([])
        prev = np.concatenate([[self.lo], xs[:-1]])
        return (prev + xs) / 2

    # -- continuation -----------------------------------------------------------

    def surrogate(self, xs, ys) -> np.ndarray:
        """A polynomial whose decomposition is known exactly: P + Q themselves."""
        P = null_vector(node_rows(self.family, self.lower_nodes(xs)))
        Pv = self.grid_rows @ P
        if Pv[np.argmax(np.abs(Pv))] < 0:
            P, Pv = -P, -Pv
        Q = self.upper_pattern_poly(ys)
        Qv = self.grid_rows @ Q
        if Qv[np.argmax(np.abs(Qv))] < 0:
            Q, Qv = -Q, -Qv
        return self.scale * (P / np.max(np.abs(Pv)) + Q / np.max(np.abs(Qv)))

    def continuation(self, xs0, tol):
        """Newton along (1 - t) e + t f from the surrogate e of xs0 to f.

        An intermediate step's Newton stops once its relative residual is
        below CONVERGED_TOL (the next step moves the target anyway) and is
        accepted below tol, the level solve accepts the end point at: a level
        at the rounding floor (near 1e-11 for degrees 5-8) would count
        converged steps as failures.  The last solve, on f, runs on to the
        floor.  No tangent predictor: at fixed z the residual is linear in t,
        so each step's first Newton step already is the tangent step.
        Returns (z, relative residual, Newton iterations).
        """
        ys0 = self.ys_for(xs0)
        e = self.surrogate(xs0, ys0)
        z = np.concatenate([np.sort(xs0), np.sort(ys0)])
        iters = []

        def advance(t, tn, z):
            fc = (1 - tn) * e + tn * self.f
            z, _, it, res = self.newton(z, fc, CONVERGED_TOL, maxit=25, floor=False)
            iters.append(it)
            return z, res < tol

        z = _homotopy(advance, z, 0.2, 1.6, 0.4, max_fails=80)[0]
        z, _, it, res = self.newton(z, self.f, tol, maxit=80)
        return z, res, sum(iters) + it

    # -- driver -----------------------------------------------------------------

    def solve(self, init: str = "chebyshev") -> KarlinDecomposition:
        if self.m == 0:
            R, _ = self.system(np.array([]), self.f)
            res = float(np.max(np.abs(R))) / self.scale if len(R) else 0.0
            return self.decomposition(np.array([]), "direct", 0, res)
        cheb, equi = self.chebyshev_init(), self.equispaced_init()
        if init == "chebyshev":
            inits = [("direct", cheb), ("direct-equi", equi)]
        else:
            inits = [("direct", equi), ("direct-cheb", cheb)]
        attempts, tried = [], []
        for label, xs0 in inits:
            z0 = np.concatenate([np.sort(xs0), np.sort(self.ys_for(xs0))])
            # for m = 1 the two layouts agree to an ulp: Newton would repeat itself
            if not self.phase_ok(z0) or any(
                np.max(np.abs(z0 - zt)) <= 1e-12 * self.width for zt in tried
            ):
                continue
            tried.append(z0)
            z, _, it, res = self.newton(z0, self.f, CONVERGED_TOL, crawl=DIRECT_CRAWL)
            if res < CONVERGED_TOL and self._valid(z):
                return self.decomposition(z, "newton:" + label, it, res)
            attempts.append((label, res))

        z, res, it = self.continuation(cheb, 100 * CONVERGED_TOL)
        if res < 100 * CONVERGED_TOL and self._valid(z):
            return self.decomposition(z, "homotopy-cheb", it, res)
        attempts.append(("homotopy-cheb", res))
        raise NoConvergence(
            "tangency solver failed on all paths", {"attempts": attempts}
        )

    def decomposition(self, z, path, iterations, res) -> KarlinDecomposition:
        """f_* and f^* = f - f_* at the double zeros z[:m] and touch points z[m:]."""
        xs, ys = np.sort(z[: self.m]), np.sort(z[self.m :])
        fl = self.f_lower(z)
        domain = self.family.domain
        return KarlinDecomposition(
            SparsePoly(tuple(fl), self.family),
            SparsePoly(tuple(self.f - fl), self.family),
            _zero_config(_merge_nodes(self.lower_nodes(xs)), domain),
            _zero_config(self.upper_nodes(ys), domain),
            iterations,
            res < CONVERGED_TOL,
            path,
            res,
        )

    def _valid(self, z) -> bool:
        """Interlaced, both parts nonnegative to 1e-9 of the local size of f
        (count_zeros's windowed running max on the grid), and f - f_* zero at
        each touch point y to TOUCH_LOCAL_TOL of the local size sum |a_i f_i(y)|
        of f.  The touch residual is relative to max |f| on the grid, which
        on a wide real-line window can exceed f near its roots by many
        orders, so a Newton stall far from any solution can pass it."""
        if not self.phase_ok(z):
            return False
        fl = self.f_lower(z)
        flv = self.grid_rows @ fl
        dv = self.grid_rows @ (self.f - fl)
        Y = self.family.eval_grid(z[self.m :])
        touch = np.abs(Y @ (self.f - fl)) <= TOUCH_LOCAL_TOL * (np.abs(Y) @ np.abs(self.f))
        return bool(np.all(np.minimum(flv, dv) >= -1e-9 * self.local) and touch.all())


def _zero_config(nodes, domain) -> ZeroConfig:
    zeros = []
    for p, m in nodes:
        endpoint = domain.kind != "real_line" and (
            math.isclose(p, domain.a, abs_tol=1e-13)
            or (domain.kind == "closed_interval" and math.isclose(p, domain.b, abs_tol=1e-13))
        )
        if endpoint:
            kind = NODAL
        else:
            kind = NON_NODAL if m % 2 == 0 else NODAL
        zeros.append((float(p), int(m), kind))
    return ZeroConfig(tuple(sorted(zeros)), domain)


def _shared_zeros(f: SparsePoly, window=None) -> tuple:
    """The zeros of f (count_zeros at SHARED_ZERO_TOL), (point, multiplicity)
    pairs, which both parts share: fewer than n with multiplicity, and even
    at every point that is not a closed end of the domain."""
    shared = tuple((p, m) for p, m, _ in count_zeros(f, tol=SHARED_ZERO_TOL, window=window).zeros)
    n, r = f.family.order, sum(m for _, m in shared)
    if 0 < n <= r:
        raise TooManyZeros(f"f has {r} zeros; needs fewer than n = {n}")
    for p, m in shared:
        if m % 2 == 1 and not f.family.domain.is_endpoint(p):
            raise OddInteriorMultiplicity(f"interior zero at {p} has odd multiplicity {m}")
    return shared


def decompose_pos_ab(
    f: SparsePoly,
    init: str = "chebyshev",
    grid: int = POS_GRID,
) -> KarlinDecomposition:
    """Karlin decomposition of a strictly positive polynomial on [a, b]."""
    family = f.family
    if family.domain.kind != "closed_interval":
        raise InvariantViolation("decompose_pos_ab needs a closed interval domain")
    a, b = family.domain.a, family.domain.b
    solver = _TangencySolver(family, f.a, (), np.linspace(a, b, grid))
    if float(solver.values.min()) <= 0:
        raise NotPositive(f"min f = {solver.values.min():.3e} on the check grid")
    return solver.solve(init)


def decompose_nonneg_ab(
    f: SparsePoly,
    init: str = "chebyshev",
    grid: int = POS_GRID,
) -> KarlinDecomposition:
    """Karlin decomposition of a nonnegative polynomial with r < n zeros."""
    family = f.family
    if family.domain.kind != "closed_interval":
        raise InvariantViolation("decompose_nonneg_ab needs a closed interval domain")
    shared = _shared_zeros(f)
    if not shared:
        return decompose_pos_ab(f, init=init, grid=grid)
    a, b = family.domain.a, family.domain.b
    solver = _TangencySolver(family, f.a, shared, np.linspace(a, b, grid))
    return solver.solve(init)


def decompose_halfline(
    f: SparsePoly,
    mode: str = "positive",
    init: str = "chebyshev",
    grid: int = POS_GRID,
) -> KarlinDecomposition:
    """Karlin decomposition on [0, inf) for power families with alpha_0 = 0.

    ``mode="positive"`` needs f > 0 on the half-line; ``mode="nonneg"``
    allows interior double zeros and factors out x^alpha when f(0) = 0.
    """
    family = f.family
    if family.variant not in ("power", "monomial"):
        raise InvariantViolation("half-line decomposition needs a power family")
    if family.domain.kind != "left_closed_halfline" or family.domain.a != 0.0:
        raise InvariantViolation("half-line decomposition needs the domain [0, inf)")
    if float(family.params[0]) != 0.0:
        raise InvariantViolation("half-line decomposition needs alpha_0 = 0")
    a_n = float(f.a[-1])
    if a_n <= 0:
        raise LeadingCoefficientNonpositive(f"a_n = {a_n} must be positive")

    X = halfline_xmax(family)  # truncation; tail checks beyond
    if mode == "positive":
        xs_grid = np.unique(np.concatenate(
            [np.linspace(0.0, X, grid // 2), np.geomspace(max(X, 1e-3), 1e6, grid // 10)]
        ))
        vals = f(xs_grid)
        if float(vals.min()) <= 0:
            raise NotPositive(f"min f = {vals.min():.3e} on [0, {xs_grid[-1]:.1e}]")
        shared: tuple = ()
    elif mode == "nonneg":
        if abs(f.a[0]) <= 1e-300:
            return _halfline_factor_out(f, init=init, grid=grid)
        if f.a[0] < 0:
            raise ValueAtZeroNonpositive(f"f(0) = {f.a[0]} must be positive")
        shared = _shared_zeros(f, window=(0.0, X))
    else:
        raise ValueError(f"mode must be 'positive' or 'nonneg', not {mode!r}")
    work_grid = np.linspace(0.0, _solve_span(f, X), grid)
    return _TangencySolver(family, f.a, shared, work_grid).solve(init)


def _halfline_factor_out(f: SparsePoly, **kw) -> KarlinDecomposition:
    """Factor x^alpha_i0 out when f(0) = 0 and decompose the cofactor."""
    family = f.family
    coeffs = f.a
    i0 = int(np.nonzero(np.abs(coeffs) > 0)[0][0])
    if coeffs[i0] <= 0:
        raise ValueAtZeroNonpositive("first nonzero coefficient must be positive")
    base = float(family.params[i0])
    sub_params = tuple(float(p) - base for p in family.params[i0:])
    sub = FamilySpec("power", sub_params, family.domain)
    g = SparsePoly(tuple(coeffs[i0:]), sub)
    dec = decompose_halfline(g, mode="nonneg", **kw)

    def lift(p: SparsePoly) -> SparsePoly:
        out = np.zeros(family.size)
        out[i0:] = p.a
        return SparsePoly(tuple(out), family)

    zl = ZeroConfig(
        _with_zero_at_origin(dec.zeros_lower.zeros, base), family.domain
    )
    zu = ZeroConfig(
        _with_zero_at_origin(dec.zeros_upper.zeros, base), family.domain
    )
    return KarlinDecomposition(
        lift(dec.f_lower),
        lift(dec.f_upper),
        zl,
        zu,
        dec.iterations,
        dec.converged,
        dec.solver_path + "+factor_out",
        dec.touch_residual,
    )


def _with_zero_at_origin(zeros, base: float):
    if base == 0:
        return zeros
    out = [z for z in zeros if z[0] != 0.0]
    k = int(base) if float(base).is_integer() else None
    added = False
    for z in zeros:
        if z[0] == 0.0:
            out.append((0.0, z[1] + (k or 0), z[2]))
            added = True
    if not added and k:
        out.append((0.0, k, NODAL))
    return tuple(sorted(out))


def _solve_span(f: SparsePoly, X: float) -> float:
    """Working span: where f is smallest relative to its top member."""
    family = f.family
    alpha_n = float(family.params[-1])
    probe = np.geomspace(1e-3, X, 400)
    rel = f(probe) / (1.0 + probe**alpha_n)
    x_c = float(probe[np.argmin(rel)])
    return max(4 * x_c, 2.0, min(X, 4 * x_c + 2.0))


# -- real line ---------------------------------------------------------------


def decompose_realline(f: SparsePoly, mode: str = "positive") -> KarlinDecomposition:
    """Karlin decomposition on the real line for dense monomial families.

    f = f_* + f^* with f_* = a_n prod (x - x_i)^2 and f^* of degree n - 2
    with double zeros at the touch points (times the zeros f shares with
    both parts in nonneg mode, fewer than n of them).
    """
    family = f.family
    if family.variant != "monomial" or family.domain.kind != "real_line":
        raise InvariantViolation("real-line decomposition needs monomials on R")
    degrees = [int(d) for d in family.params]
    if degrees != list(range(len(degrees))):
        raise InvariantViolation("real-line decomposition needs dense degrees 0..2m")
    n = family.order
    if n % 2 != 0:
        raise OddDegree(f"top degree {n} must be even")
    a_lead = float(f.a[-1])
    if a_lead <= 0:
        raise NegativeLeading(f"leading coefficient {a_lead} must be positive")

    lo, hi = _root_window(f)
    if mode not in ("positive", "nonneg"):
        raise ValueError(f"mode must be 'positive' or 'nonneg', not {mode!r}")
    shared = _shared_zeros(f, window=(lo, hi)) if mode == "nonneg" else ()
    grid = np.linspace(lo, hi, 2001)
    solver = _TangencySolver(family, f.a, shared, grid)
    if mode == "positive" and float(solver.values.min()) <= 0:
        raise NotPositive("f must be strictly positive on R")
    return solver.solve()


def _root_window(f: SparsePoly) -> tuple[float, float]:
    """A window holding every root of a dense f of degree n on R: c +- Fujiwara's
    bound of f(x + c), c = -a_(n-1) / (n a_n) the balance point of the top two
    terms.  The Taylor coefficients of f at c are f^(k)(c) / k!."""
    n = f.family.order
    if n == 0:
        return -1.0, 1.0
    c = -float(f.a[-2]) / (n * float(f.a[-1]))
    k = np.arange(n + 1)
    taylor = f.family.eval_grid(np.full(n + 1, c), k) @ f.a / [math.factorial(i) for i in k]
    r = _root_bound(taylor) or 1.0  # 0 for f = a_n (x - c)^n
    return c - r, c + r


def _deflate(coeffs: np.ndarray, root: float) -> np.ndarray:
    """Synthetic division by (x - root); ascending coefficients."""
    c = coeffs[::-1]
    out = np.empty(len(c) - 1)
    acc = c[0]
    for i in range(len(c) - 1):
        out[i] = acc
        acc = c[i + 1] + acc * root
    return out[::-1]


def _root_bound(q: np.ndarray) -> float:
    """Fujiwara's bound on the moduli of the roots of q (ascending coefficients)."""
    n = len(q) - 1
    return 2 * max(abs(q[n - k] / q[n]) ** (1 / k) for k in range(1, n + 1))


# -- Lukacs/Markov closed forms (dense polynomials, companion-matrix path) ----


@dataclass(frozen=True)
class LukacsDecomposition:
    """Closed-form decomposition of a dense nonnegative polynomial."""

    domain_kind: str
    zfactors: tuple  # (root, multiplicity) inside the domain
    alpha: float
    beta: float
    xs: tuple
    ys: tuple
    f_lower: tuple  # dense ascending coefficients, alpha part (with zfactors)
    f_upper: tuple
    reconstruction_error: float

    def to_dict(self) -> dict:
        return {
            "domain_kind": self.domain_kind,
            "zfactors": [[float(z), int(m)] for z, m in self.zfactors],
            "alpha": self.alpha,
            "beta": self.beta,
            "xs": list(self.xs),
            "ys": list(self.ys),
            "reconstruction_error": self.reconstruction_error,
        }


def _polish_root(coeffs_asc: np.ndarray, z, steps: int = 8):
    """Newton-polish a simple root of an explicit polynomial in long double."""
    c = np.asarray(coeffs_asc, dtype=np.clongdouble)
    dc = c[1:] * np.arange(1, len(c), dtype=np.clongdouble)
    z = np.clongdouble(z)
    for _ in range(steps):
        v = np.clongdouble(0)
        for ck in c[::-1]:
            v = v * z + ck
        d = np.clongdouble(0)
        for ck in dc[::-1]:
            d = d * z + ck
        if d == 0:
            break
        step = v / d
        z = z - step
        if abs(step) < 1e-30 * (1 + abs(z)):
            break
    return complex(z)


def _real_roots_polished(coeffs_asc: np.ndarray) -> np.ndarray:
    if len(coeffs_asc) <= 1:
        return np.array([])
    roots = np.roots(coeffs_asc[::-1])
    out = []
    for r in roots:
        z = _polish_root(coeffs_asc, r)
        out.append(z.real)
    return np.sort(np.array(out))


def _hb_split(q: np.ndarray):
    """Hermite-Biehler split of q > 0 on R: q = A^2 + B^2, roots interlacing.

    Companion-matrix path: complex roots of q (polished by long-double
    Newton), upper-half-plane product.
    """
    lead = q[-1]
    roots = np.roots(q[::-1])
    upper = [w for w in roots if np.imag(w) > 0]
    h = np.array([np.clongdouble(1.0)])
    for w in upper:
        wz = _polish_root(q, w)
        h = np.convolve(h, np.array([1.0, -wz], dtype=np.clongdouble))
    h = h * np.clongdouble(math.sqrt(lead))
    A = np.asarray(np.real(h), dtype=float)[::-1]  # ascending
    Bc = np.asarray(np.imag(h), dtype=float)[::-1]
    return A, Bc


def _trim(c: np.ndarray, tol: float) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    big = np.max(np.abs(c)) if len(c) else 0.0
    idx = np.nonzero(np.abs(c) > tol * max(big, 1e-300))[0]
    return c[: idx[-1] + 1] if len(idx) else np.array([0.0])


def _domain_zeros(p: np.ndarray, domain) -> tuple:
    """Real zeros of p inside the domain, with multiplicities (roots path)."""
    deg = len(p) - 1
    if deg <= 0:
        return ()
    roots = np.roots(p[::-1])
    real = roots[np.abs(np.imag(roots)) < 1e-7 * (1 + np.abs(roots))]
    cand = sorted(np.real(real))
    groups: list[list] = []
    for r in cand:
        if groups and abs(r - np.mean(groups[-1])) < 1e-3 * (1 + abs(r)):
            groups[-1].append(r)
        else:
            groups.append([r])
    zeros = []
    pscale = float(np.max(np.abs(p)))
    for g in groups:
        z = float(np.mean(g))
        if not domain.contains(z):
            continue
        m = len(g)
        # polish on the (m-1)-th derivative where the zero is simple
        dp = p[::-1]
        for _ in range(m - 1):
            dp = np.polyder(dp)
        for _ in range(50):
            v, d = np.polyval(dp, z), np.polyval(np.polyder(dp), z)
            if d == 0:
                break
            step = v / d
            z -= step
            if abs(step) < 1e-15 * (1 + abs(z)):
                break
        val = abs(np.polyval(p[::-1], z))
        if val < 1e-7 * pscale * (1 + abs(z)) ** deg:
            zeros.append((z, m))
    return tuple(zeros)


def lukacs_decompose(p, domain) -> LukacsDecomposition:
    """Closed-form decomposition of a dense polynomial p >= 0 on the domain.

    Zeros inside the domain are factored out; the strictly positive cofactor
    is split into the two weighted squares of the classical representation.
    All locations come from companion-matrix roots, never from the Newton
    tangency path, so this is an independent oracle for the Karlin solvers.
    """
    p = np.asarray(p, dtype=float)
    p = _trim(p, 1e-300)
    kind = domain.kind
    lo, hi = domain.window()
    chk = np.linspace(lo, hi, 4001)
    vals = np.polyval(p[::-1], chk)
    pscale = float(np.max(np.abs(vals)))
    if float(vals.min()) < -1e-9 * pscale:
        raise NegativeSomewhere(f"min p = {vals.min():.3e} on the domain window")

    zf = _domain_zeros(p, domain)
    q = p.copy()
    orientation = 1.0
    for z, m in zf:
        if kind != "real_line" and not (domain.contains(z)):
            continue
        interior = domain.contains(z) and not (
            (kind == "closed_interval" and (math.isclose(z, domain.a) or math.isclose(z, domain.b)))
            or (kind == "left_closed_halfline" and math.isclose(z, domain.a))
        )
        if interior and m % 2 == 1:
            raise NegativeSomewhere(f"odd-multiplicity interior zero at {z}")
        if kind == "closed_interval" and math.isclose(z, domain.b) and m % 2 == 1:
            # orient the endpoint factor as (b - x) so the cofactor stays positive
            orientation = -orientation
        for _ in range(m):
            q = _deflate(q, z)
    # deflation keeps p's leading coefficient; on an unbounded domain a small
    # one still shapes the decomposition (1 + 1e-20 x^8 on R has parts with
    # zeros out to 556), so trimming it would decompose another polynomial
    q = orientation * (_trim(q, 1e-12) if kind == "closed_interval" else q)
    d = len(q) - 1
    if kind != "closed_interval" and q[-1] < 0:
        raise NegativeSomewhere("cofactor has negative leading coefficient")

    if kind == "real_line":
        alpha, beta, xs, ys, fl_q, fu_q = _lukacs_realline(q)
    elif kind == "left_closed_halfline":
        alpha, beta, xs, ys, fl_q, fu_q = _lukacs_halfline(q)
    else:
        alpha, beta, xs, ys, fl_q, fu_q = _lukacs_interval(q, domain.a, domain.b)

    zpoly = np.array([orientation])
    for z, m in zf:
        for _ in range(m):
            zpoly = np.convolve(zpoly, [-z, 1.0])
    fl = np.convolve(zpoly, fl_q)
    fu = np.convolve(zpoly, fu_q) if len(fu_q) else np.zeros(1)
    rec = np.zeros(len(p))
    rec[: len(fl)] += fl
    if len(fu):
        rec[: len(fu)] += fu
    err = float(np.max(np.abs(rec - p))) / max(float(np.max(np.abs(p))), 1e-300)
    return LukacsDecomposition(
        kind, zf, float(alpha), float(beta), tuple(np.sort(xs)), tuple(np.sort(ys)),
        tuple(fl), tuple(fu), err,
    )


def _lukacs_realline(q: np.ndarray):
    d = len(q) - 1
    if d == 0:
        return q[0], 0.0, (), (), q.copy(), np.array([])
    # A has degree d/2 and B degree d/2 - 1 (its top is exactly 0): cut
    # there, since a small leading coefficient is still the polynomial's
    A, Bc = _hb_split(q)
    A, Bc = A[: d // 2 + 1], Bc[: d // 2]
    xs = _real_roots_polished(A) if len(A) > 1 else np.array([])
    ys = _real_roots_polished(Bc) if len(Bc) > 1 else np.array([])
    fl = np.convolve(A, A)
    fu = np.convolve(Bc, Bc)
    return A[-1] ** 2, (Bc[-1] ** 2 if len(Bc) else 0.0), xs, ys, fl, fu


def _parity_parts(Q: np.ndarray, d: int):
    """(F, G) with Q(t) = F(t^2)^2 + t^2 G(t^2)^2 for an even Q > 0 of
    degree 2d.  Of the Hermite-Biehler factors of Q, the one of degree d,
    A, is even for even d and odd otherwise, and B the other way round; F
    takes the even one's coefficients in t^2 and G the odd one's over t,
    cut at their degrees by construction, d//2 and (d+1)//2 - 1.
    """
    A, Bc = _hb_split(Q)
    even, odd = (A, Bc) if d % 2 == 0 else (Bc, A)
    return even[0::2][: d // 2 + 1], odd[1::2][: (d + 1) // 2]


def _lukacs_halfline(q: np.ndarray):
    d = len(q) - 1
    if d == 0:
        return q[0], 0.0, (), (), q.copy(), np.array([])
    Q = np.zeros(2 * d + 1)
    Q[0::2] = q  # Q(t) = q(t^2)
    F, G = _parity_parts(Q, d)  # q = F(x)^2 + x*G(x)^2
    xs = _real_roots_polished(F) if len(F) > 1 else np.array([])
    ys = _real_roots_polished(G) if len(G) > 1 else np.array([])
    sq = np.convolve(F, F)
    wq = np.convolve([0.0, 1.0], np.convolve(G, G)) if len(G) else np.array([])
    if d % 2 == 0:
        # even case: the plain square carries the lead and is the f_* part
        return F[-1] ** 2, (G[-1] ** 2 if len(G) else 0.0), xs, ys, sq, wq
    # odd case: the x-weighted square carries the lead (the f_* part);
    # the record keeps alpha/xs for the plain square per the classical form
    return (F[-1] ** 2 if len(F) else 0.0), G[-1] ** 2, xs, ys, wq, sq


def _lukacs_interval(q: np.ndarray, a: float, b: float):
    d = len(q) - 1
    if d == 0:
        return q[0], 0.0, (), (), q.copy(), np.array([])
    # R(u) = (1+u)^d q((a + b u)/(1 + u)) via binomial convolution
    R = np.zeros(d + 1)
    for k, qk in enumerate(q):
        term = np.array([1.0])
        for _ in range(k):
            term = np.convolve(term, [a, b])
        for _ in range(d - k):
            term = np.convolve(term, [1.0, 1.0])
        R[: len(term)] += qk * term
    Q = np.zeros(2 * d + 1)
    Q[0::2] = R
    F, G = _parity_parts(Q, d)  # plain square in u, u-weighted square

    def lift(H: np.ndarray, top: int) -> np.ndarray:
        """sum H_k (x-a)^k (b-x)^(top-k) as dense ascending coefficients."""
        out = np.zeros(top + 1)
        for k, hk in enumerate(H):
            term = np.array([1.0])
            for _ in range(k):
                term = np.convolve(term, [-a, 1.0])
            for _ in range(top - k):
                term = np.convolve(term, [b, -1.0])
            out[: len(term)] += hk * term
        return out

    scale = (b - a) ** (-d)
    if d % 2 == 0:
        m = d // 2
        At = lift(F, m)
        Bt = lift(G, m - 1) if len(G) else np.zeros(1)
        fl = scale * np.convolve(At, At)
        w = np.convolve([-a, 1.0], [b, -1.0])
        fu = scale * np.convolve(w, np.convolve(Bt, Bt)) if len(G) else np.array([])
        alpha = scale * At[-1] ** 2
        beta = scale * Bt[-1] ** 2 if len(Bt) else 0.0
        xs = _real_roots_polished(At) if len(At) > 1 else np.array([])
        ys = _real_roots_polished(Bt) if len(Bt) > 1 else np.array([])
        return alpha, beta, xs, ys, fl, fu
    m = (d - 1) // 2
    # odd: q = scale[(x-a) P~^2 + (b-x) R~^2], P~ from the u-odd part
    Pt = lift(G, m) if len(G) else np.zeros(1)
    Rt = lift(F, m)
    fl = scale * np.convolve([-a, 1.0], np.convolve(Pt, Pt))
    fu = scale * np.convolve([b, -1.0], np.convolve(Rt, Rt))
    alpha = scale * Pt[-1] ** 2 if len(Pt) else 0.0
    beta = scale * Rt[-1] ** 2
    xs = _real_roots_polished(Pt) if len(Pt) > 1 else np.array([])
    ys = _real_roots_polished(Rt) if len(Rt) > 1 else np.array([])
    return alpha, beta, xs, ys, fl, fu
