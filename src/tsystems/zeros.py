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
_EPS = float(np.finfo(float).eps)


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
                   polished: dict | None = None, also=()) -> ZeroConfig:
    """count_zeros on xs = linspace(lo, hi, len(xs)), given f(xs) and its
    _local_scale.  Each local minimum of |f|, and each grid index in
    ``also``, is polished, all in one lockstep, and put in ``polished``
    (grid index -> polished point) where that is given."""
    family, grid = f.family, len(xs)
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0 or scale <= tol * np.max(np.abs(f.a)) * 1e-6:
        raise ZeroPolynomial("polynomial is numerically zero on the window")
    width = hi - lo
    step = width / (grid - 1)

    def local_scale(points) -> list:
        """The local scale at the grid point nearest to each point."""
        return [max(float(sloc[min(max(round((x - lo) / step), 0), grid - 1)]), 1e-300 * scale)
                for x in points]

    s = np.sign(vals)
    brackets = [[(float(xs[j]), float(vals[j]), float(xs[j])) for j in (i, i + 1)]
                for i in np.flatnonzero(s[:-1] * s[1:] < 0)]
    roots = [b for b, _, _ in _zeroin(lambda ts: zip(_values(f, ts, 0)[0], ts), brackets)]
    # a zero on a grid point reads 0 there: no sign change either side of it
    roots.extend(map(float, xs[vals == 0]))

    absv = np.abs(vals)
    left = np.concatenate([absv[:1], absv[:-1]])
    right = np.concatenate([absv[1:], absv[-1:]])
    minima = np.flatnonzero((absv <= left) & (absv <= right) & (absv < 1e-2 * sloc)).tolist()
    own = set(minima)
    starts = minima + [i for i in also if i not in own]
    x0 = _polish_on_derivative(f, [float(xs[i]) for i in starts], [2] * len(starts), lo, hi, width)
    if polished is not None:
        polished.update(zip(starts, x0))
    # a polished minimum of |f| at the rounding floor is a root, as is an
    # end of the window where |f| is below tol
    points = x0[: len(minima)] + [float(lo), float(hi)]
    v, rows = _values(f, points, 0)
    floor = _rounding(f, rows)[: len(minima)] + [0.0, 0.0]
    roots += [x for x, y, sc, e in zip(points, v, local_scale(points), floor) if abs(y) <= max(tol * sc, e)]

    merged = _merge_basins(f, sorted(roots), tol, local_scale, width)
    resolved = _resolve_multiplicity(f, merged, _scale_window(grid) * step, local_scale, lo, hi, width, tol)
    kinds = _classify(f, resolved, lo, hi, width, local_scale([z[0] for z in resolved]))
    zeros = sorted((float(min(max(z[0], lo), hi)), z[1], kind) for z, kind in zip(resolved, kinds))
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


def _values(f: SparsePoly, x, order) -> tuple[list, np.ndarray]:
    """f^(order_j)(x_j) at each point of the list x and the rows they come
    from, all from one eval_grid; ``order`` is one order or a list.  Each
    value is its row's own (1 x n) @ a product, as in f(x_j, order_j), so
    it equals that call bit for bit (the rows' matrix-vector product can
    differ in the last bit).  Where NonDifferentiable, None and a NaN row."""
    if not len(x):
        return [], np.empty((0, f.family.size))
    x = np.asarray(x, dtype=float)
    if not isinstance(order, int):  # a list: one order for all is the cheaper call
        order = order[0] if min(order) == max(order) else np.asarray(order, dtype=int)
    try:
        rows = f.family.eval_grid(x, order)
    except NonDifferentiable:  # raised by a row at 0 alone: take the rows one at a time
        if x.size == 1:
            return [None], np.full((1, f.family.size), np.nan)
        each = [_values(f, [xj], k) for xj, k in zip(x.tolist(), np.broadcast_to(order, x.shape).tolist())]
        return [v for vs, _ in each for v in vs], np.concatenate([r for _, r in each])
    return np.matmul(rows[:, None, :], f.a)[:, 0].tolist(), rows


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


def _rounding(f: SparsePoly, rows: np.ndarray) -> list:
    """eps * sum |a_i f_i(x)| of each row: the rounding error of evaluating f at x."""
    return (_EPS * np.abs(rows * f.a).sum(axis=1)).tolist()


def _merge_basins(f, roots, tol, local_scale, width):
    """Merge candidate roots connected by an |f| <= 10*tol*local band."""
    merged: list[float] = []
    for r in roots:
        if merged:
            prev = merged[-1]
            if abs(r - prev) <= 1e-9 * width:
                continue
            between = np.linspace(prev, r, 9)[1:-1]
            if np.all(np.abs(f(between)) <= 10 * tol * local_scale([(prev + r) / 2])[0]):
                merged[-1] = min([prev, r] + list(between), key=lambda t: abs(f(t)))
                continue
        merged.append(r)
    return merged


def _resolve_multiplicity(f, roots, W, local_scale, lo, hi, width, tol) -> list:
    """(point, multiplicity, rounding error of f there) of each root: the
    largest consistent multiplicity, with the position polished on f^(m-1).

    For each candidate m (from the order down), polish on f^(m-1) where a
    multiplicity-m zero is simple, then require the Taylor terms below m to
    be negligible against the m-th and the m-th term to carry the local
    scale.  m = 1 is the simple-zero fallback.  The candidates m > 1 of all
    roots share one lockstep and one evaluation of their ladders.
    """
    n = f.family.order
    ms = range(n, 1, -1)
    rts = _polish_on_derivative(f, [r0 for r0 in roots for _ in ms], [m for _ in roots for m in ms],
                                lo, hi, width)
    ask, first = [], []  # the ladder f^(j)(rt), j = 0..n, of each candidate within W/2 of its root
    for c, rt in enumerate(rts):
        first.append(len(ask))
        if abs(rt - roots[c // len(ms)]) <= 0.5 * W:
            ask += [rt] * (n + 1)
    v, rows = _values(f, ask, list(range(n + 1)) * (len(ask) // (n + 1)))
    floor = _rounding(f, rows)
    out = [None] * len(roots)
    for q, (r0, sloc) in enumerate(zip(roots, local_scale(roots))):
        for c, m_try in enumerate(ms, q * len(ms)):
            rt, j = rts[c], first[c]
            ladder = v[j : j + n + 1]
            if abs(rt - r0) > 0.5 * W or None in ladder:  # too far, or no derivative there
                continue
            terms = [abs(ladder[k]) * W**k / math.factorial(k) for k in range(n + 1)]
            t_m = terms[m_try]
            if t_m < 1e-3 * sloc or abs(ladder[0]) > max(10 * tol * sloc, floor[j]):
                continue
            if all(terms[k] <= 1e-7 * t_m for k in range(m_try)):
                out[q] = (rt, m_try, floor[j])
                break
    fallback = [q for q, z in enumerate(out) if z is None]
    rts = _polish_on_derivative(f, [roots[q] for q in fallback], [1] * len(fallback), lo, hi, width)
    v, rows = _values(f, [r for q, rt in zip(fallback, rts) for r in (rt, roots[q])], 0)
    floor = _rounding(f, rows)
    for j, q, rt in zip(range(0, len(v), 2), fallback, rts):
        if abs(rt - roots[q]) > 0.5 * W or abs(v[j]) > abs(v[j + 1]):
            rt, j = roots[q], j + 1
        out[q] = (rt, 1, floor[j])
    return out


def _polish_on_derivative(f, starts, mults, lo, hi, width) -> list:
    """Newton on f^(m-1), where a multiplicity-m zero is simple, from each
    start r with its m, all in lockstep (one _values call a step), until a
    step is within 4 ulp of x or no shorter than the step before.  With
    m = 2 it lands on the critical point of f near r: the local minimum of
    |f| where a double zero sits."""
    x, last = list(starts), [math.inf] * len(starts)
    moving = list(range(len(starts)))
    for _ in range(60):
        if not moving:
            break
        pts = [x[i] for i in moving for _ in (0, 1)]
        v = _values(f, pts, [mults[i] - 1 + d for i in moving for d in (0, 1)])[0]
        still = []
        for i, value, slope in zip(moving, v[::2], v[1::2]):
            if value is None or slope is None or slope == 0:  # no derivative there, or a flat one
                continue
            step = -value / slope
            if abs(step) > 0.02 * width:
                step = math.copysign(0.02 * width, step)
            xn = min(max(x[i] + step, lo), hi)
            x[i], moved = xn, abs(xn - x[i])
            if moved <= 4 * math.ulp(x[i]) or moved >= last[i]:
                continue
            last[i] = moved
            still.append(i)
        moving = still
    return [xi if abs(xi - r) <= 0.05 * width else r for xi, r in zip(x, starts)]


def _classify(f: SparsePoly, found, lo: float, hi: float, width: float, slocs) -> list:
    """NODAL or NON_NODAL for each (point, multiplicity, rounding error) of
    _resolve_multiplicity, from the signs of f at side points r -+ delta,
    delta halved until both sides carry a sign; a round evaluates the side
    points of every zero still unsigned at once."""
    kinds, live = [NON_NODAL] * len(found), {}
    for i, ((r, _, rounding), sloc) in enumerate(zip(found, slocs)):
        if abs(r - lo) <= 1e-12 * width or abs(r - hi) <= 1e-12 * width:
            kinds[i] = NODAL  # endpoint zeros are nodal by convention
            continue
        # both side points stay strictly inside the window: a side point clamped
        # onto an endpoint reads f there, not beside the zero
        delta = min(1e-4 * width, 0.5 * (r - lo), 0.5 * (hi - r))
        # a side value below the rounding error of evaluating f has no sign
        live[i] = [r, delta, min(1e-9 * width, delta), max(1e-11 * sloc, rounding)]
    while live:
        v = _values(f, [x for r, d, *_ in live.values() for x in (r - d, r + d)], 0)[0]
        for (i, (r, delta, floor, small)), left, right in zip(list(live.items()), v[::2], v[1::2]):
            if abs(left) > small and abs(right) > small:
                kinds[i] = NODAL if left * right < 0 else NON_NODAL
            elif delta / 2 >= floor:
                live[i][1] = delta / 2
                continue
            del live[i]
    return kinds
