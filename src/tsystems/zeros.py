"""Index calculus, generalized polynomials with prescribed zeros, zero counting.

A "polynomial" here is a linear combination f = sum a_i f_i over a family.
The polynomial with prescribed zeros is the bordered confluent determinant
det([f(x); B]) of the node matrix B, expanded along its symbolic first row:
its coefficients are B's cofactor vector, which colloc.null_vector computes
by one elimination.  A nonnegative one, from poly_from_zeros or any
extremal pattern of ``extremal``, has one builder, _pattern_vectors.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .colloc import NodeSet, certify, node_rows, null_vector
from .errors import (
    CertificationRequired,
    IndexTooLarge,
    InvariantViolation,
    NonDifferentiable,
    ZeroPolynomial,
)
from .family import Domain, FamilySpec
from .solvers import _zeroin

NODAL = "nodal"
NON_NODAL = "non_nodal"


@dataclass(frozen=True)
class ZeroConfig:
    """Zeros of a polynomial: (point, multiplicity, nodal/non_nodal) triples."""

    zeros: tuple
    domain: Domain

    def __post_init__(self):
        pts = [z[0] for z in self.zeros]
        if any(pts[i] >= pts[i + 1] for i in range(len(pts) - 1)):
            raise InvariantViolation("zero points must be strictly increasing")

    @property
    def points(self) -> tuple:
        return tuple(z[0] for z in self.zeros)

    @property
    def total_multiplicity(self) -> int:
        return sum(int(z[1]) for z in self.zeros)

    def to_dict(self) -> dict:
        return {
            "zeros": [[float(p), int(m), k] for p, m, k in self.zeros],
            "domain": self.domain.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def index_of(config: ZeroConfig) -> int:
    """Index of the zero set: interior points weigh max(2, multiplicity),
    endpoints weigh their multiplicity (1 for simple endpoint zeros)."""
    total = 0
    for p, m, _kind in config.zeros:
        if config.domain.is_endpoint(p):
            total += int(m)
        else:
            total += max(2, int(m))
    return total


@dataclass(frozen=True)
class SparsePoly:
    """f = sum a_i f_i in a family basis."""

    coeffs: tuple
    family: FamilySpec

    def __post_init__(self):
        if len(self.coeffs) != self.family.size:
            raise InvariantViolation(
                f"{len(self.coeffs)} coefficients for family of size {self.family.size}"
            )

    @property
    def a(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)

    def __call__(self, x, order: int = 0):
        vals = self.family.eval_grid(np.atleast_1d(np.asarray(x, dtype=float)), order)
        out = vals @ self.a
        return float(out[0]) if np.isscalar(x) else out

    def __mul__(self, c: float) -> "SparsePoly":
        return SparsePoly(tuple(c * self.a), self.family)

    __rmul__ = __mul__

    def to_dict(self) -> dict:
        return {"family": self.family.to_dict(), "coeffs": list(map(float, self.coeffs))}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_dict(d: dict) -> "SparsePoly":
        return SparsePoly(tuple(d["coeffs"]), FamilySpec.from_dict(d["family"]))


def cofactor_coefficients(family: FamilySpec, nodes: NodeSet) -> np.ndarray:
    """Cofactors along the symbolic first row of the bordered node matrix,
    at unit max-norm (colloc.null_vector); zero when the nodes are degenerate."""
    return null_vector(node_rows(family, nodes.nodes))


@functools.lru_cache(maxsize=256)
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


def _pattern_vectors(fam: FamilySpec, fixed, thetas, curvature: bool = False) -> tuple:
    """Node matrix B and null vector a of the nonnegative polynomial with the
    ``fixed`` (point, multiplicity) nodes and a double zero at each entry of
    ``thetas`` (an m-vector, or a k x m stack of placements, giving stacks
    of k matrices and vectors): the one builder of a zero-pattern polynomial.

    a is the null vector of B, oriented so p > 0 at the middle of the
    widest gap between p's zeros and the ends of the domain's window, and
    scaled to unit max-norm (a_k = +-1).  With ``curvature`` a third item
    holds the rows f''(theta_j) that null_vector_tangent needs.  Every row
    comes from one eval_grid call, and a stack takes one null_vector call.
    """
    thetas = np.asarray(thetas, dtype=float)
    lead, m = thetas.shape[:-1], thetas.shape[-1]
    th = thetas.reshape(math.prod(lead), m)
    k, nf = len(th), len(fixed)
    nb, gather, orders = _block_layout(tuple(int(mu) for _, mu in fixed), m, curvature)
    pts = np.empty((k, nf + m + 2))
    pts[:, :2] = fam.domain.window()
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


def poly_from_zeros(
    family: FamilySpec,
    nodes: NodeSet,
    sign: str = "auto_nonneg",
    check_certificate: bool = True,
) -> SparsePoly:
    """Polynomial with the prescribed zeros: the cofactor vector of the node
    matrix, at unit max-norm.

    ``sign="raw"`` keeps the cofactor orientation, so p(x) has the sign of
    det([f(x); B]).  ``sign="auto_nonneg"`` (interior multiplicities even,
    total index at most the order, so p keeps one sign) orients p as
    _pattern_vectors does: positive at the middle of the widest gap between
    the zeros and the window ends.
    """
    n = family.order
    if nodes.total_multiplicity != n:
        raise IndexTooLarge(
            f"total multiplicity {nodes.total_multiplicity} must equal order {n}"
        )
    if sign == "auto_nonneg":
        for p, m in nodes.nodes:
            if m % 2 == 1 and not family.domain.is_endpoint(p):
                raise IndexTooLarge(f"interior zero at {p} has odd multiplicity {m}")
        idx = index_of(ZeroConfig(tuple((p, m, NON_NODAL) for p, m in nodes.nodes), family.domain))
        if idx > n:
            raise IndexTooLarge(f"index {idx} exceeds order {n}")
    if check_certificate:
        target = "ET" if any(m > 1 for _, m in nodes.nodes) else "T"
        certificate = certify(family, target)
        if not certificate:
            raise CertificationRequired(
                f"family failed {target} certification; counterexample {certificate.counterexample}"
            )

    if sign == "auto_nonneg":
        a = _pattern_vectors(family, nodes.nodes, ())[1]
    else:
        a = cofactor_coefficients(family, nodes)
    if not a.any():
        raise InvariantViolation("degenerate node matrix: zero cofactor vector")
    return SparsePoly(tuple(a), family)


def count_zeros(
    f: SparsePoly,
    tol: float = 1e-9,
    window: tuple | None = None,
) -> ZeroConfig:
    """Locate and classify the zeros of f on the (windowed) domain.

    Nodal zeros come from zeroin on sign changes; non-nodal candidates from
    local minima of |f| pushed through a Newton polish on f'.  All thresholds
    are relative to a LOCAL magnitude of f (a windowed running maximum), so
    zeros are found even where the family's top member dwarfs f locally.
    Multiplicity m is read off the Taylor ladder and the position is then
    re-polished on f^(m-1), where the zero is simple; a zero where f has no
    derivative (x^alpha at 0, alpha not natural) is a simple nodal endpoint
    zero.  Raises InvariantViolation if the configuration breaks 2k + l <= n.
    """
    lo, hi = f.family.domain.window() if window is None else window
    xs = np.linspace(lo, hi, 2001)
    vals = f(xs)
    return _zeros_on_grid(f, lo, hi, xs, vals, _local_scale(vals), tol)


def _zeros_on_grid(f: SparsePoly, lo, hi, xs: np.ndarray, vals, sloc, tol: float,
                   polished: dict | None = None) -> ZeroConfig:
    """count_zeros on xs = linspace(lo, hi, len(xs)), given f(xs) and its
    _local_scale; each local minimum of |f| polished is put in ``polished``
    (grid index -> polished point) where that is given."""
    family, grid = f.family, len(xs)
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0 or scale <= tol * np.max(np.abs(f.a)) * 1e-6:
        raise ZeroPolynomial("polynomial is numerically zero on the window")
    width = hi - lo
    step = width / (grid - 1)

    def local_scale(x: float) -> float:
        i = int(np.clip(round((x - lo) / step), 0, grid - 1))
        return max(float(sloc[i]), 1e-300 * scale)

    roots: list[float] = []
    s = np.sign(vals)
    for i in np.flatnonzero(s[:-1] * s[1:] < 0):
        ends = [(float(xs[j]), float(vals[j]), float(xs[j])) for j in (i, i + 1)]
        roots.append(_zeroin(lambda t: (f(t), t), *ends)[0])
    # a zero on a grid point reads 0 there: no sign change either side of it
    roots.extend(map(float, xs[vals == 0]))

    absv = np.abs(vals)
    left = np.concatenate([absv[:1], absv[:-1]])
    right = np.concatenate([absv[1:], absv[-1:]])
    for i in np.flatnonzero((absv <= left) & (absv <= right) & (absv < 1e-2 * sloc)):
        x0 = _polish_on_derivative(f, float(xs[i]), 2, lo, hi, width)
        if polished is not None:
            polished[int(i)] = x0
        if abs(f(x0)) <= max(tol * local_scale(x0), _rounding(f, x0)):
            roots.append(x0)
    for xe in (lo, hi):
        if abs(f(xe)) <= tol * local_scale(xe):
            roots.append(float(xe))

    merged = _merge_basins(f, sorted(roots), tol, local_scale, width)

    zeros = []
    for r in merged:
        r, mult = _resolve_multiplicity(f, r, _scale_window(grid) * step, local_scale, lo, hi, width, tol)
        kind = _classify(f, r, lo, hi, width, local_scale(r))
        zeros.append((float(min(max(r, lo), hi)), mult, kind))
    zeros = sorted(zeros)
    dedup = []
    for z in zeros:
        if dedup and abs(z[0] - dedup[-1][0]) <= 1e-12 * width:
            continue
        dedup.append(z)

    cfg = ZeroConfig(tuple(dedup), family.domain)
    n = family.order
    k = sum(1 for z in dedup if z[2] == NON_NODAL)
    l = sum(1 for z in dedup if z[2] == NODAL)
    if 2 * k + l > n:
        raise InvariantViolation(f"zero count bound violated: 2*{k} + {l} > {n}", cfg)
    return cfg


def _scale_window(n: int) -> int:
    """The local scale's half-width on an n-point grid: max(3, n // 50) points."""
    return max(3, n // 50)


def _local_scale(vals: np.ndarray) -> np.ndarray:
    """The local magnitude of samples of f on a uniform grid: the windowed
    running max of |vals|, ``_scale_window(len)`` points each side."""
    return _running_max(np.abs(vals), _scale_window(len(vals)))


def _running_max(a: np.ndarray, K: int) -> np.ndarray:
    """out[i] = max(a[i-K : i+K+1]), the window clipped to the array.

    Doubling: on a copy padded with -inf, maxima over spans of 1, 2, 4, ...
    points, then each window is the max of two overlapping spans.
    """
    width = 2 * K + 1
    span = np.concatenate([np.full(K, -np.inf), a, np.full(K, -np.inf)])
    length = 1
    while 2 * length <= width:
        span = np.maximum(span[:-length], span[length:])
        length *= 2
    return np.maximum(span[: len(a)], span[width - length : width - length + len(a)])


def _rounding(f: SparsePoly, x: float) -> float:
    """eps * sum |a_i f_i(x)|, the rounding error of evaluating f at x."""
    return np.finfo(float).eps * float(np.abs(f.family.eval_grid(np.array([x]))[0] * f.a).sum())


def _merge_basins(f, roots, tol, local_scale, width):
    """Merge candidate roots connected by an |f| <= 10*tol*local band."""
    merged: list[float] = []
    for r in roots:
        if merged:
            prev = merged[-1]
            if abs(r - prev) <= 1e-9 * width:
                continue
            between = np.linspace(prev, r, 9)[1:-1]
            if np.all(np.abs(f(between)) <= 10 * tol * local_scale((prev + r) / 2)):
                merged[-1] = min([prev, r] + list(between), key=lambda t: abs(f(t)))
                continue
        merged.append(r)
    return merged


def _resolve_multiplicity(f, r0, W, local_scale, lo, hi, width, tol):
    """Largest consistent multiplicity, with the position polished on f^(m-1).

    For each candidate m (from the order down), polish on f^(m-1) where a
    multiplicity-m zero is simple, then require the Taylor terms below m to
    be negligible against the m-th and the m-th term to carry the local
    scale.  m = 1 is the simple-zero fallback.
    """
    n = f.family.order
    sloc = local_scale(r0)
    for m_try in range(n, 1, -1):
        rt = _polish_on_derivative(f, r0, m_try, lo, hi, width)
        if abs(rt - r0) > 0.5 * W:
            continue
        try:
            terms = [abs(f(rt, j)) * W**j / math.factorial(j) for j in range(n + 1)]
        except NonDifferentiable:
            continue
        t_m = terms[m_try]
        if t_m < 1e-3 * sloc or abs(f(rt)) > max(10 * tol * sloc, _rounding(f, rt)):
            continue
        if all(terms[j] <= 1e-7 * t_m for j in range(m_try)):
            return rt, m_try
    rt = _polish_on_derivative(f, r0, 1, lo, hi, width)
    if abs(rt - r0) > 0.5 * W or abs(f(rt)) > abs(f(r0)):
        rt = r0
    return rt, 1


def _polish_on_derivative(f, r, mult, lo, hi, width) -> float:
    """Newton on f^(m-1), where a multiplicity-m zero is simple, until a step
    is within 4 ulp of x or no shorter than the step before.  With m = 2 it
    lands on the critical point of f near r: the local minimum of |f| where a
    double zero sits."""
    x, last = r, math.inf
    for _ in range(60):
        try:
            v, d = f(x, mult - 1), f(x, mult)
        except NonDifferentiable:
            break
        if d == 0:
            break
        step = -v / d
        if abs(step) > 0.02 * width:
            step = math.copysign(0.02 * width, step)
        xn = min(max(x + step, lo), hi)
        x, moved = xn, abs(xn - x)
        if moved <= 4 * math.ulp(x) or moved >= last:
            break
        last = moved
    return x if abs(x - r) <= 0.05 * width else r


def _classify(f: SparsePoly, r: float, lo: float, hi: float, width: float, sloc: float) -> str:
    # endpoint zeros are nodal by convention
    if abs(r - lo) <= 1e-12 * width or abs(r - hi) <= 1e-12 * width:
        return NODAL
    # both side points stay strictly inside the window: a side point clamped
    # onto an endpoint reads f there, not beside the zero
    delta = min(1e-4 * width, 0.5 * (r - lo), 0.5 * (hi - r))
    floor = min(1e-9 * width, delta)
    # a side value below the rounding error of evaluating f has no sign
    small = max(1e-11 * sloc, _rounding(f, r))
    while delta >= floor:
        left = f(r - delta)
        right = f(r + delta)
        if abs(left) > small and abs(right) > small:
            return NODAL if left * right < 0 else NON_NODAL
        delta /= 2
    return NON_NODAL
