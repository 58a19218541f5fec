"""Collocation matrices, Wronskians, and T/ET/ECT certification.

Determinants and cofactor vectors come from one full-pivot elimination in
extended-precision (long double) accumulation: det([r; B]) = r.C(B), with
C(B) the signed cofactor vector of the node matrix B.  Dimensions are
capped at 12: the constructions in this toolkit never need more than n+1
rows, and confluent Vandermonde matrices grow too ill-conditioned beyond
desk scale for the certificates to stay trustworthy.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificationRequired,
    DimensionMismatch,
    NonPositiveLeadFunction,
)
from .family import FamilySpec, custom_family
from .solvers import _zeroin

DET_DIM_CAP = 12
#: |det| <= REL_TOL * (product of row max-norms) counts as vanishing.
REL_TOL = 1e-12
_LD0, _LD1 = np.longdouble(0.0), np.longdouble(1.0)  # built once: each costs a microsecond


@dataclass(frozen=True)
class NodeSet:
    """Ordered collocation points with multiplicities."""

    nodes: tuple  # of (point, multiplicity)

    def __post_init__(self):
        pts = [p for p, _ in self.nodes]
        if any(pts[i] >= pts[i + 1] for i in range(len(pts) - 1)):
            raise DimensionMismatch("node points must be strictly increasing")
        if any(m < 1 or int(m) != m for _, m in self.nodes):
            raise DimensionMismatch("multiplicities must be positive naturals")

    @property
    def total_multiplicity(self) -> int:
        return sum(int(m) for _, m in self.nodes)

    @property
    def points(self) -> tuple:
        return tuple(p for p, _ in self.nodes)

    def to_dict(self) -> dict:
        return {"nodes": [[float(p), int(m)] for p, m in self.nodes]}

    @staticmethod
    def of(*nodes) -> "NodeSet":
        """NodeSet.of((x1, m1), (x2, m2), ...) or NodeSet.of(x1, x2, ...); sorts."""
        norm = sorted(
            (float(n), 1) if np.isscalar(n) else (float(n[0]), int(n[1])) for n in nodes
        )
        return NodeSet(tuple(norm))


@np.errstate(divide="ignore", invalid="ignore")  # also _eliminate_one's
def det(matrix: np.ndarray):
    """Determinant in long-double accumulation (dim <= 12), expanded along
    the first row: det([r; B]) = r.C(B), with B's cofactor vector C(B) from
    null_vector's elimination; NaN if a NaN turns up in it or in r.C(B).  A
    stack of square matrices gives their determinants, each equal bit for
    bit to its one-matrix result."""
    A = np.asarray(matrix, dtype=np.longdouble)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch(f"square matrix required, got {A.shape}")
    n = A.shape[-1]
    if n > DET_DIM_CAP:
        raise DimensionMismatch(f"dimension {n} exceeds cap {DET_DIM_CAP}")
    if n == 0:
        return 1.0 if A.ndim == 2 else np.ones(len(A))
    if A.ndim == 2:
        x, perm, d = _eliminate_one(A[1:].tolist(), n - 1)
        if x is None:
            return float(d)
        r = A[0].tolist()  # r.C summed from zero, as the stack's matmul sums
        return float(sum((r[p] * v for p, v in zip(perm, x)), _LD0) * d)
    x, perm, d = _eliminate_stack(A[:, 1:])
    r = A[:, 0][np.arange(len(A))[:, None], perm]
    return np.where(d != 0, (r[:, None, :] @ x[:, :, None])[:, 0, 0] * d, 0.0).astype(float)


def det_scale(matrix: np.ndarray) -> float:
    """Product of row max-norms; the reference scale for the vanishing test."""
    return float(np.prod(np.max(np.abs(np.asarray(matrix, dtype=float)), axis=1)))


def vanishes(matrix: np.ndarray) -> bool:
    """Scale-invariant vanishing test; a collapsed row also counts."""
    sc = det_scale(matrix)
    return sc == 0.0 or abs(det(matrix)) <= REL_TOL * sc or _collapsed(matrix)


def _collapsed(rows: np.ndarray) -> bool:
    """A row tiny relative to the rest: the limit matrix has a zero row.
    A NaN row maximum makes the test false, as in numpy's min and max."""
    rowmax = np.abs(rows).max(axis=1).tolist()
    return not any(map(math.isnan, rowmax)) and min(rowmax) <= 1e-30 * max(rowmax)


def krein_matrix(family: FamilySpec, nodes: NodeSet) -> np.ndarray:
    """Collocation matrix (f_i(x_j))_{j,i}; all multiplicities must be 1."""
    if any(m != 1 for _, m in nodes.nodes):
        raise DimensionMismatch("krein_matrix needs all multiplicities 1")
    if len(nodes.nodes) != family.size:
        raise DimensionMismatch(
            f"{len(nodes.nodes)} nodes for a family of size {family.size}"
        )
    return family.eval_grid(np.array(nodes.points))


def confluent_matrix(family: FamilySpec, nodes: NodeSet) -> np.ndarray:
    """Starred collocation matrix: repeated points become derivative rows.

    For each node (x, m) the rows f_i(x), f_i'(x), ..., f_i^(m-1)(x) appear
    consecutively, in node order.
    """
    if nodes.total_multiplicity != family.size:
        raise DimensionMismatch(
            f"total multiplicity {nodes.total_multiplicity} != family size {family.size}"
        )
    return node_rows(family, nodes.nodes)


def node_rows(family: FamilySpec, nodes) -> np.ndarray:
    """Derivative-row block for arbitrary (point, multiplicity) pairs."""
    pts, orders = node_points(nodes)
    if not pts:
        return np.zeros((0, family.size))
    return family.eval_grid(pts, orders)


def node_points(nodes) -> tuple[list, list]:
    """The points and derivative orders of node_rows' rows, for callers that
    evaluate more rows in the same eval_grid call."""
    return ([float(x) for x, m in nodes for _ in range(int(m))],
            [k for _, m in nodes for k in range(int(m))])


def wronskian(family: FamilySpec, k: int, x: float) -> float:
    """Wronskian of f_0..f_k at x: det (f_i^(j)(x))_{i,j=0..k}."""
    if k >= family.size:
        raise DimensionMismatch(f"k = {k} exceeds order {family.order}")
    rows = family.eval_grid(np.full(k + 1, float(x)), np.arange(k + 1))
    return det(rows[:, : k + 1].T)


# -- null vectors of node matrices (pattern polynomials) ----------------------


@np.errstate(divide="ignore", invalid="ignore")  # also _eliminate_one's
def null_vector(B: np.ndarray) -> np.ndarray:
    """The cofactor vector of an n x (n+1) node matrix B at unit max-norm;
    zero when B is rank-deficient, all NaN when a NaN turns up in the
    elimination.  A stack of k such matrices, k x n x (n+1), gives the
    k x (n+1) array of their cofactor vectors, each equal bit for bit to its
    one-matrix result.

    The cofactor vector c has r.c = det([r; B]) for every row r, so it is
    the coefficient vector of the polynomial vanishing at the nodes, with
    the sign of the bordered determinant.  One matrix is eliminated on
    long-double scalars (_eliminate_one): at these sizes numpy's per-call
    overhead costs more than the arithmetic.  A stack is eliminated all at
    once (_eliminate_stack).
    """
    B = np.asarray(B, dtype=np.longdouble)
    nr, nc = B.shape[-2:]
    if B.ndim not in (2, 3) or nc != nr + 1:
        raise DimensionMismatch(f"expected n x (n+1) matrix or a stack of them, got {B.shape}")
    if B.ndim == 2:
        x, perm, d = _eliminate_one(B.tolist(), nr)
        if x is None:
            return np.full(nc, float(d))
        a = [0.0] * nc
        for k, p in enumerate(perm):
            a[p] = float(x[k])
        norm = max(map(abs, a)) * (1.0 if d > 0 else -1.0)  # exact: carries d's sign
        return np.array([v / norm for v in a])
    x, perm, d = _eliminate_stack(B)
    a = np.empty(x.shape)
    a[np.arange(len(a))[:, None], perm] = x
    a /= np.abs(a).max(axis=-1, keepdims=True)
    a *= np.sign(d)[:, None]
    a[d == 0] = 0.0
    return a


def _eliminate_one(rows: list, nr: int):
    """Full-pivot long-double elimination of one n x (n+1) matrix, given as
    nr lists of long-double scalars (modified in place): (x, perm, d), with
    the cofactor vector C[perm[k]] = d x[k]; x is None, and d is 0 for a
    rank-deficient matrix and NaN once a NaN turns up.

    The pivot is the first entry of largest magnitude of the trailing block
    in row-major order, as numpy's argmax picks it; each row r below the
    pivot row p becomes r - (r[k]/piv) p.  x is the back-substituted null
    vector with x[n] = 1, its sums taken from zero as numpy's long-double
    matmul takes them.  C[perm[n]] = (-1)^n det(B without that column) is
    d, the product of the pivots negated once per row or column swap.  As
    in a stack, inf - inf and inf / inf make NaNs, silenced by the callers.
    """
    nc = nr + 1
    perm = list(range(nc))
    d = -1.0 if nr % 2 else 1.0  # long double from the first pivot on
    for k in range(nr):
        best, pi, pj = -1.0, k, k
        for i in range(k, nr):
            r = rows[i]
            for j in range(k, nc):
                v = abs(r[j])
                if v > best:
                    best, pi, pj = v, i, j
                elif v != v:
                    return None, perm, math.nan
        if pi != k:
            rows[k], rows[pi] = rows[pi], rows[k]
            d = -d
        if pj != k:
            for r in rows:
                r[k], r[pj] = r[pj], r[k]
            perm[k], perm[pj] = perm[pj], perm[k]
            d = -d
        top = rows[k]
        piv = top[k]
        if piv == 0:
            return None, perm, 0.0
        d = d * piv
        for r in rows[k + 1 :]:
            f = r[k] / piv
            for j in range(k + 1, nc):
                r[j] = r[j] - f * top[j]
    x = [0.0] * nc
    x[nr] = _LD1
    for k in range(nr - 1, -1, -1):
        r = rows[k]
        s = _LD0
        for j in range(k + 1, nc):
            s = s + r[j] * x[j]
        x[k] = s / -r[k]
    return (x, perm, d) if x[0] == x[0] else (None, perm, math.nan)  # a NaN in x reaches x[0]


def _eliminate_stack(B: np.ndarray):
    """_eliminate_one on a stack k x n x (n+1), each matrix with its own
    pivots, in the same arithmetic and order: (x, perm, d) as k x (n+1),
    k x (n+1) and k arrays.  Each step swaps the pivot's column, then its
    row, into place in every matrix, the columns with their labels (carried
    as an extra row), and negates d for the matrices that made exactly one
    swap.  A row swap moves only the trailing columns: the others are never
    read again.  A matrix in which a NaN turns up keeps it: numpy's argmax
    takes the first NaN as pivot.
    """
    K, nr, nc = B.shape
    M = np.empty((K, nr + 1, nc), dtype=np.longdouble)
    M[:, :nr] = B
    M[:, nr] = np.arange(nc)
    mats = np.arange(K)
    odd = np.full(K, nr % 2 == 1)  # d < 0 where odd: (-1)^n to start, as in _eliminate_one
    # a rank-deficient matrix meets a zero pivot; its NaNs stay in its row
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(nr):
            block = np.abs(M[:, k:nr, k:]).reshape(K, (nr - k) * (nc - k))
            i, j = np.divmod(block.argmax(axis=-1), nc - k)
            odd ^= np.logical_xor(i, j)
            cols = M[:, :, k:]  # each swap writes the copy last: the view is read first
            cols[mats, :, j], cols[:, :, 0] = cols[:, :, 0], cols[mats, :, j]
            if k + 1 < nr:  # else the trailing block is one row, and i = 0
                rows = M[:, k:nr, k:]
                rows[mats, i], rows[:, 0] = rows[:, 0], rows[mats, i]
                below, top = rows[:, 1:], rows[:, :1]
                below -= below[..., :1] / top[..., :1] * top
        piv = np.diagonal(M[:, :nr], axis1=1, axis2=2)
        # x_k = -(row_k . x)/piv_k, computed as (row_k . x)/(-piv_k): the
        # same bits, one negation fewer per step
        x = np.empty((K, nc, 1), dtype=np.longdouble)
        x[:, nr, 0] = 1.0
        neg_piv = -piv[..., None, None]
        for k in range(nr - 1, -1, -1):
            np.divide(np.matmul(M[:, k : k + 1, k + 1 :], x[:, k + 1 :]), neg_piv[:, k], out=x[:, k : k + 1])
        d = np.where(piv.all(axis=-1), np.where(odd, -1.0, 1.0) * piv.prod(axis=-1), 0.0)
    return x[..., 0], M[:, nr].astype(np.intp), d


def null_vector_tangent(B: np.ndarray, a: np.ndarray, rows, second: np.ndarray) -> np.ndarray:
    """Derivatives of the null vector a of B in the positions of double nodes.

    B holds the rows f(x), f'(x) of a double node at each x_j, the f' row
    at rows[j], and second[j] is the row f''(x_j); a is scaled to unit
    max-norm (a_k = +-1, as null_vector scales).  Differentiating B a = 0 in
    x_j: the row f(x).a = 0 gives f(x).a' = -f'(x).a = 0, the row
    f'(x).a = 0 gives f'(x).a' = -f''(x).a, every other row r.a' = 0, and
    the scaling a'_k = 0.  So a' solves the bordered system
    [B; e_k] a' = -(f''(x).a) e_r, r = rows[j].  Returns the (n+1) x m
    array whose column j is da/dx_j.  The caller evaluates the f'' rows
    with B's, in one eval_grid call.
    """
    n1 = B.shape[1]
    M = np.zeros((n1, n1))
    M[:-1] = B
    M[-1, int(np.abs(a).argmax())] = 1.0
    rhs = np.zeros((n1, len(second)))
    rhs[rows, np.arange(len(second))] = -(second @ a)
    return np.linalg.solve(M, rhs)


# -- certification -------------------------------------------------------------


@dataclass(frozen=True)
class SystemCertificate:
    """Outcome of a T/ET/ECT check.

    ``level`` is the requested target when the check passed, else ``"none"``
    with a refuting NodeSet attached.  ``route`` says what decided it.

    ``"theory"``: a classical theorem decides the family on the window (see
    ``certify``).  A pass holds for every node tuple (``exhaustive`` is
    True), and ``evidence`` is the scaled determinant at n+1 ordered
    interior points.  The one theory refutation is of ET/ECT for a power or
    monomial family whose exponents are not 0, 1, ..., n, on a window
    starting at 0: the counterexample is the node 0 of multiplicity n+1, and
    ``evidence`` is 0.  There an exponent alpha > n gives an all-zero
    column (its derivatives of order <= n vanish at 0), and a non-natural
    alpha < n has no derivative of order ceil(alpha) at 0.

    ``"grid"``: a pass for T/ET is grid-level evidence (``exhaustive``
    tells whether the tuple enumeration was complete); a refutation is
    sound: the counterexample determinant is below the scale-invariant
    vanishing tolerance.
    """

    level: str
    evidence: float
    counterexample: NodeSet | None = None
    canonical_sign: tuple = ()
    grid_points: int = 0
    seed: int = 0
    exhaustive: bool = True
    window: tuple = ()
    route: str = "grid"

    def __bool__(self) -> bool:
        return self.level != "none"

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "evidence": self.evidence,
            "counterexample": None if self.counterexample is None else self.counterexample.to_dict(),
            "canonical_sign": list(self.canonical_sign),
            "grid_points": self.grid_points,
            "seed": self.seed,
            "exhaustive": self.exhaustive,
            "window": list(self.window),
            "route": self.route,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


_CERT_CACHE: dict = {}


def certify(
    family: FamilySpec,
    target: str = "T",
    grid: int = 201,
    budget: int = 100_000,
    seed: int = 0,
    window: tuple | None = None,
) -> SystemCertificate:
    """Certify or refute (soundly) T/ET/ECT structure.

    The built-in families the classical theory decides (Karlin & Studden,
    *Tchebycheff Systems*, 1966, ch. I) get an exact verdict, route
    ``"theory"``, with canonical sign all +1 and no grid work:

    - ``power``/``monomial`` on a window with lo > 0 (Descartes systems),
      and for T with lo = 0 = params[0] (the row at 0 is (1, 0, ..., 0));
    - ``power``/``monomial`` with exponents exactly 0, 1, ..., n, on any
      window (polynomials; W = prod k!);
    - ``exponential`` on any window;
    - ``rational`` with lo > -params[0] (Cauchy kernels).

    Each also needs strictly increasing params and a window inside the
    domain, checked here (``FamilySpec.from_dict`` does not validate), and a
    positive determinant at n+1 ordered interior points in doubles.  A power
    or monomial family on a window starting at 0 is refuted for ET and ECT
    at the node 0 of multiplicity n+1 unless its exponents are 0, ..., n
    (see ``SystemCertificate``).

    Everything else takes route ``"grid"``.  ECT is a deterministic scan of
    the n+1 Wronskian functions, a sign change refined by zeroin.  T and ET sample
    ordered node tuples: all of them when the count fits the budget,
    otherwise ``budget`` random sorted tuples (fixed seed, drawn chunk by
    chunk as they are screened), always including the full diagonal
    (x, ..., x) scan for ET.
    """
    target = target.upper()
    if target not in ("T", "ET", "ECT"):
        raise ValueError(f"target must be T, ET, or ECT, not {target!r}")
    lo, hi = family.domain.window() if window is None else window
    cert = _certify_theory(family, target, grid, seed, (lo, hi))
    if cert is not None:
        return cert
    key = None
    if family.variant != "custom":
        key = (family.to_json(), target, grid, budget, seed, window)
        if key in _CERT_CACHE:
            return _CERT_CACHE[key]
    cert = _certify_grid(family, target, grid, budget, seed, (lo, hi))
    if key is not None:
        _CERT_CACHE[key] = cert
    return cert


def _certify_grid(family, target, grid, budget, seed, window) -> SystemCertificate:
    """The grid route of ``certify``: the Wronskian scan or the tuple screen."""
    lo, hi = window
    xs = np.linspace(lo, hi, grid)
    sign = _canonical_sign(family, lo, hi)
    if target == "ECT":
        return _certify_ect(family, xs, sign, seed, window)
    return _certify_tuples(family, xs, target, sign, budget, seed, window)


def _theory_verdict(family: FamilySpec, target: str, lo: float, hi: float) -> bool | None:
    """True when a theorem proves ``target`` on [lo, hi], False when the node
    0 of multiplicity n+1 refutes it, None when no theorem applies."""
    p = tuple(family.params)
    if family.variant == "custom" or not p:
        return None
    if not all(math.isfinite(a) for a in p) or not all(a < b for a, b in zip(p, p[1:])):
        return None
    dom = family.domain
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi
            and dom.contains(lo) and dom.contains(hi)):
        return None
    if family.variant in ("power", "monomial"):
        if all(a == k for k, a in enumerate(p)) or lo > 0:
            return True
        if lo == 0 and target != "T" and p[0] >= 0:
            return False
        return True if lo == 0 and p[0] == 0 else None
    if family.variant == "exponential":
        return True
    if family.variant == "rational" and lo > -p[0]:
        return True
    return None


def _certify_theory(family, target, grid, seed, window) -> SystemCertificate | None:
    """The ``certify`` verdict of the theorems, or None for the grid route."""
    lo, hi = window
    verdict = _theory_verdict(family, target, lo, hi)
    if verdict is None:
        return None
    rows = _ordered_rows(family, lo, hi)
    d = det(rows)
    if not d > 0:
        return None
    sign = (1.0,) * family.size
    if not verdict:
        ce = NodeSet(((0.0, family.size),))
        return SystemCertificate("none", 0.0, ce, sign, grid, seed, True, window, "theory")
    return SystemCertificate(
        target, d / det_scale(rows), None, sign, grid, seed, True, window, "theory"
    )


def _ordered_rows(family: FamilySpec, lo: float, hi: float) -> np.ndarray:
    """Collocation matrix at n+1 equispaced interior points of [lo, hi]."""
    n = family.order
    pts = np.linspace(lo, hi, n + 3)[1:-1] if n > 0 else np.array([(lo + hi) / 2])
    return family.eval_grid(pts[: n + 1])


def _canonical_sign(family: FamilySpec, lo: float, hi: float) -> np.ndarray:
    """+1 per member, with f_n flipped if the ordered determinant is negative."""
    sign = np.ones(family.size)
    if det(_ordered_rows(family, lo, hi)) < 0:
        sign[-1] = -1.0
    return sign


def _zeroin_vanishing(family, tup_lo, tup_hi, sign, d_lo, d_hi):
    """Find where the determinant vanishes between two sorted node tuples
    whose determinants d_lo and d_hi have opposite signs.

    solvers._zeroin on t -> det(rows(t)) along the path (1 - t) tup_lo +
    t tup_hi, a tuple with collapsed rows counting as a zero.  Each point
    is evaluated with its own coincidence pattern; the sign of the starred
    determinant is continuous along sorted interpolation paths.
    """
    lo, hi = list(map(float, tup_lo)), list(map(float, tup_hi))

    def at(t):  # on floats: the arithmetic of numpy's, at less per-call cost
        mid = [(1 - t) * a + t * b for a, b in zip(lo, hi)]
        # distinct points have order 0 throughout: one order for all is the cheaper call
        same = any(a == b for a, b in zip(mid, mid[1:]))
        return mid, family.eval_grid(mid, _confluent_orders(np.array([mid]))[0] if same else 0) * sign

    def value(t):
        mid, rows = at(t)
        return (0.0 if _collapsed(rows) else det(rows)), tuple(mid)

    [(b, fb, xb)] = _zeroin(lambda ts: map(value, ts), [((0.0, d_lo, tuple(lo)), (1.0, d_hi, tuple(hi)))])
    if fb == 0.0:
        return xb, True
    # bracket collapsed; confirm the crossing is real (not determinant noise)
    delta = 1e-5
    rows_m, rows_p = at(max(b - delta, 0.0))[1], at(min(b + delta, 1.0))[1]
    d_m, d_p = det(rows_m), det(rows_p)
    genuine = (
        d_m * d_p < 0
        and abs(d_m) >= 1e-13 * max(det_scale(rows_m), 1e-300)
        and abs(d_p) >= 1e-13 * max(det_scale(rows_p), 1e-300)
    )
    return xb, genuine


def _tuple_to_nodeset(tup) -> NodeSet:
    nodes = []
    for x in tup:
        if nodes and math.isclose(nodes[-1][0], x, rel_tol=0, abs_tol=1e-15):
            nodes[-1][1] += 1
        else:
            nodes.append([float(x), 1])
    return NodeSet(tuple((p, m) for p, m in nodes))


def _confluent_orders(tuples: np.ndarray) -> np.ndarray:
    """Derivative order of each entry of sorted tuples (one a row): the number
    of equal entries before it, as a repeated point is its next derivative."""
    orders = np.zeros(tuples.shape, dtype=int)
    same = tuples[:, 1:] == tuples[:, :-1]
    if same.any():  # else all zero, as for every T tuple
        for c in range(1, tuples.shape[1]):
            orders[:, c] = (orders[:, c - 1] + 1) * same[:, c - 1]
    return orders


_SCREEN_TOL = 1e-9


def _certify_tuples(family, xs, target, sign, budget, seed, window) -> SystemCertificate:
    n = family.order
    grid = len(xs)
    max_order = n if target == "ET" else 0
    tables = np.stack([family.eval_grid(xs, k) * sign for k in range(max_order + 1)])
    row_norms = np.max(np.abs(tables), axis=2)  # gathered like the rows, for det_scale

    chunks = _tuple_chunks(grid, n, target, budget, seed)
    exhaustive = next(chunks)
    min_scaled = math.inf
    ref_x = None
    ref_det = 0.0
    counterexample = None

    for tt in chunks:
        oo = _confluent_orders(tt)
        rows = tables[oo, tt, :]  # (B, n+1, n+1)
        dets = np.linalg.det(rows)
        scales = np.prod(row_norms[oo, tt], axis=1)
        scaled = np.abs(dets) / np.where(scales > 0, scales, 1.0)
        bmin = float(scaled.min())
        if bmin < min_scaled:
            min_scaled = bmin
        if ref_x is None:
            good = dets > _SCREEN_TOL * scales
            if np.any(good):
                gi = int(np.argmax(good))
                ref_x, ref_det = xs[tt[gi]], float(dets[gi])
        # Smallness alone is not a refutation (clustered tuples have genuinely
        # tiny determinants); only exact zeros, row collapse, or a confirmed
        # sign crossing refute.
        suspicious = np.nonzero(dets <= 0)[0]
        suspicious = suspicious[np.argsort(scaled[suspicious], kind="stable")]
        for si in suspicious:
            tup_x, rws = xs[tt[si]], rows[si]
            d = det(rws)
            sc = det_scale(rws)
            if d == 0.0 or sc == 0.0 or _collapsed(rws):
                counterexample = _tuple_to_nodeset(tup_x)
                min_scaled = min(min_scaled, 0.0 if sc <= 0 else abs(d) / sc)
                break
            if d < 0 and ref_x is not None and abs(d) >= 1e-13 * sc:
                mid, sound = _zeroin_vanishing(family, ref_x, tup_x, sign, ref_det, d)
                if sound:
                    counterexample = _tuple_to_nodeset(mid)
                    break
        if counterexample is not None:
            break

    level = target if counterexample is None else "none"
    return SystemCertificate(
        level, min_scaled, counterexample, tuple(sign), len(xs), seed, exhaustive, window
    )


def _tuple_chunks(grid: int, n: int, target: str, budget: int, seed: int):
    """Whether the screen of ``_certify_tuples`` (or one axis of
    ``smooth.kernel_tp_check``) is exhaustive, then its node-index tuples, a
    chunk at a time.

    Every sorted tuple when their count fits the budget, 20,000 a chunk.
    Otherwise ``budget`` random sorted tuples from ``seed`` (for ET after the
    diagonal tuples (x, ..., x), where confluent failures such as a flat
    Wronskian point live), drawn as they are screened, in the order of one
    draw of them all: 1,000 first, where a refutation mostly ends, then
    20,000 a chunk.  T keeps the increasing ones of 1.2 * budget draws and
    tops them up with sorted draws of ``grid - n`` points plus (0, ..., n).
    Raises ValueError on a grid without tuples: a screen of none passes.
    """
    count = math.comb(grid, n + 1) if target == "T" else math.comb(grid + n, n + 1)
    if count == 0:
        raise ValueError(f"a grid of {grid} points holds no {target} tuple of {n + 1} points")
    size = 20_000
    if count <= budget:
        yield True
        pick = itertools.combinations if target == "T" else itertools.combinations_with_replacement
        tuples = np.array(list(pick(range(grid), n + 1)), dtype=int)
        yield from (tuples[i : i + size] for i in range(0, len(tuples), size))
        return
    yield False
    size = 1_000
    rng = np.random.default_rng(seed)
    draws = int(budget * 1.2) if target == "T" else budget
    rows = np.repeat(np.arange(grid if target == "ET" else 0)[:, None], n + 1, axis=1)
    left = budget + len(rows)
    while left > 0:
        if draws:
            block = np.sort(rng.integers(0, grid, size=(min(size, draws), n + 1)), axis=1)
            draws -= len(block)
            if target == "T":  # the increasing ones, column by column: a per-row reduction costs 10x
                increasing = np.ones(len(block), dtype=bool)
                for c in range(n):
                    increasing &= block[:, c] < block[:, c + 1]
                block = block[increasing]
        else:
            block = np.sort(rng.integers(0, grid - n, size=(left, n + 1)), axis=1) + np.arange(n + 1)
        rows = np.concatenate([rows, block])
        while left > 0 and len(rows) and (len(rows) >= size or draws == 0):
            out, rows = rows[: min(size, left)], rows[min(size, left) :]
            left -= len(out)
            size = 20_000
            yield out


def _wronskians(tables, k: int) -> tuple[np.ndarray, np.ndarray]:
    """W(f_0..f_k) and its det_scale at every grid point, where tables[j]
    holds f^(j) on the grid (one row per point)."""
    mats = np.stack(tables[: k + 1], axis=-1)[:, : k + 1]  # [gi, i, j] = f_i^(j)
    return det(mats), np.prod(np.max(np.abs(mats), axis=-1), axis=-1)


def _certify_ect(family, xs, sign, seed, window) -> SystemCertificate:
    n = family.order
    tables = [family.eval_grid(xs, k) * sign for k in range(n + 1)]
    min_scaled = math.inf
    for k in range(n + 1):
        vals, scales = _wronskians(tables, k)
        scaled = np.abs(vals) / np.where(scales > 0, scales, 1.0)
        min_scaled = min(min_scaled, float(scaled.min()))
        bad = vals <= 0
        if np.any(bad):
            gi = int(np.argmax(bad))
            x_bad = xs[gi]
            # refine by zeroin toward an actual sign change when available
            if 0 < gi < len(xs) - 1 and vals[gi - 1] > 0 > vals[gi + 1]:
                signed = float(np.prod(sign[: k + 1]))  # the scan's orientation
                ends = [(float(xs[j]), float(vals[j]), float(xs[j])) for j in (gi - 1, gi + 1)]
                x_bad = _zeroin(lambda ts: [(signed * wronskian(family, k, t), t) for t in ts], [ends])[0][2]
            ce = NodeSet(((float(x_bad), k + 1),))
            return SystemCertificate(
                "none", float(scaled.min()), ce, tuple(sign), len(xs), seed, True, window
            )
    return SystemCertificate("ECT", min_scaled, None, tuple(sign), len(xs), seed, True, window)


# -- reduction and canonical ECT weights --------------------------------------


def _quotient_derivs(u: np.ndarray, v: np.ndarray, order: int) -> float:
    """order-th derivative of u/v from derivative lists u[k], v[k] at a point."""
    h = np.empty(order + 1)
    for mm in range(order + 1):
        s = u[mm]
        for j in range(1, mm + 1):
            s -= math.comb(mm, j) * h[mm - j] * v[j]
        h[mm] = s / v[0]
    return float(h[order])


def reduced_system(family: FamilySpec) -> FamilySpec:
    """The reduced system g_i = (f_{i+1}/f_0)'.

    Requires f_0 > 0 on the domain (checked on a grid).  Derivatives of the
    g_i are composed analytically from family derivatives via the quotient
    rule, so the reduced family is again exact.
    """
    lo, hi = family.domain.window()
    f0 = family.eval_grid(np.linspace(lo, hi, 201))[:, 0]
    if np.min(f0) <= 0:
        raise NonPositiveLeadFunction("f_0 must be positive on the domain")
    n = family.order

    def make_eval(i):
        def ev(x: float, order: int = 0) -> float:
            rows = family.eval_grid(np.full(order + 2, float(x)), np.arange(order + 2))
            return _quotient_derivs(rows[:, i + 1], rows[:, 0], order + 1)

        return ev

    evs = tuple(make_eval(i) for i in range(n))
    return custom_family(evs, family.domain, name=f"reduced({family.variant})")


def ect_canonical_weights(family: FamilySpec, grid: int = 201) -> tuple[np.ndarray, np.ndarray]:
    """Tabulated canonical ECT weights g_0..g_n on a grid.

    g_0 = f_0, g_1 = W(f_0,f_1)/f_0^2, and
    g_i = W(f_0..f_i) W(f_0..f_{i-2}) / W(f_0..f_{i-1})^2 for i >= 2.
    Returns (xs, G) with G[i] the tabulated g_i, all strictly positive.
    """
    certificate = certify(family, "ECT", grid=grid)
    if certificate.level != "ECT":
        raise CertificationRequired("ect_canonical_weights needs an ECT family")
    sign = np.array(certificate.canonical_sign)
    lo, hi = certificate.window if certificate.window else family.domain.window()
    xs = np.linspace(lo, hi, grid)
    n = family.order
    tables = [family.eval_grid(xs, k) * sign for k in range(n + 1)]
    W = np.array([_wronskians(tables, k)[0] for k in range(n + 1)])
    G = np.empty((n + 1, grid))
    G[0] = W[0]
    if n >= 1:
        G[1] = W[1] / W[0] ** 2
    for i in range(2, n + 1):
        G[i] = W[i] * W[i - 2] / W[i - 1] ** 2
    if np.min(G) <= 0:
        raise CertificationRequired("canonical weights not strictly positive")
    return xs, G
