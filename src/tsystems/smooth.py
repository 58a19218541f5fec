"""Gaussian-kernel smoothing of T-systems and total-positivity checks.

Convolving each member with a Gaussian turns a continuous T-system into an
ET-system; derivatives of the smoothed members come from differentiating
the kernel, so they are quadrature-exact rather than finite differences.
Members are extended by constant continuation outside [a, b], which keeps
the interior limits while avoiding the endpoint-halving of the truncated
convolution.  One panel quadrature per point and derivative order
(``_convolve``) gives every member at once: the source family is evaluated
once on all the nodes, and each member is a weighted sum of its column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .colloc import det, det_scale
from .errors import QuadratureBudgetExceeded
from .family import FamilySpec, custom_family

_GL_CACHE: dict = {}


def _gauss_legendre(npts: int):
    if npts not in _GL_CACHE:
        _GL_CACHE[npts] = np.polynomial.legendre.leggauss(npts)
    return _GL_CACHE[npts]


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian (or custom) kernel with its quadrature recipe."""

    kind: str = "gaussian"
    sigma: float = 1.0
    evaluator: object = None  # custom: K(x, y); optional y-derivatives via (x, y, order)
    panels: int = 64
    truncation: float = 8.0  # in units of sigma

    def __post_init__(self):
        if self.kind == "gaussian" and self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.truncation < 4:
            raise ValueError("truncation must be at least 4 sigma")

    def __call__(self, x, y, order: int = 0):
        """K(x, y) or its order-th partial derivative in y."""
        if self.kind == "gaussian":
            u = np.asarray(x) - np.asarray(y)
            return (-1.0) ** order * gaussian_kernel(u, self.sigma, order)
        if order == 0:
            return self.evaluator(x, y)
        return self.evaluator(x, y, order)


def _hermite_prob(k: int, t: np.ndarray) -> np.ndarray:
    """Probabilists' Hermite polynomial He_k(t)."""
    h0 = np.ones_like(t)
    if k == 0:
        return h0
    h1 = t.copy()
    for j in range(1, k):
        h0, h1 = h1, t * h1 - j * h0
    return h1


def gaussian_kernel(u, sigma: float, order: int = 0) -> np.ndarray:
    """order-th derivative of the Gaussian density with scale sigma at u."""
    u = np.asarray(u, dtype=float)
    t = u / sigma
    base = np.exp(-0.5 * t * t) / (sigma * math.sqrt(2 * math.pi))
    if order == 0:
        return base
    return (-1.0 / sigma) ** order * _hermite_prob(order, t) * base


def gaussian_smooth(
    family: FamilySpec,
    kernel: KernelSpec | None = None,
    tol: float = 1e-10,
    return_report: bool = False,
):
    """Convolve each member with the Gaussian kernel; returns a custom family.

    The smoothed members and their derivatives of any order come from one
    panel Gauss-Legendre quadrature per point against the kernel derivative
    over [x - T sigma, x + T sigma]: a single evaluation of all source members
    on the nodes gives every member's value there.  The source members use
    constant continuation outside [a, b].  Each (x, order) is quadratured
    once and memoized, so grid-based certification reuses quadratures.
    """
    if kernel is None:
        kernel = KernelSpec("gaussian", 0.05)
    if kernel.kind != "gaussian":
        raise ValueError("gaussian_smooth needs a gaussian kernel")
    sigma, T, panels = kernel.sigma, kernel.truncation, kernel.panels
    lo, hi = family.domain.window()
    memo: dict = {}

    def smoothed(x: float, order: int) -> np.ndarray:
        key = (float(x), order)
        if key not in memo:
            memo[key] = _convolve(family, key[0], order, sigma, T, panels, lo, hi)
        return memo[key]

    def member(i: int):
        return lambda x, order=0: float(smoothed(x, order)[i])

    evs = tuple(member(i) for i in range(family.size))
    out = custom_family(evs, family.domain, name=f"smoothed({family.variant}, sigma={sigma})")

    # quadrature error estimate: compare against doubled panel count at probes
    probes = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 5)
    fine = [_convolve(family, float(x), 0, sigma, T, 2 * panels, lo, hi) for x in probes]
    err = max(float(np.max(np.abs(smoothed(x, 0) - f))) for x, f in zip(probes, fine))
    scale = max(1.0, float(np.max(np.abs(family.eval_grid(probes)))))
    if err > max(tol * scale, 10 * np.exp(-T * T / 2)):
        raise QuadratureBudgetExceeded(
            f"quadrature error estimate {err:.2e} exceeds tolerance"
        )
    if return_report:
        report = {
            "quadrature_error_estimate": err,
            "truncation_error_bound": float(np.exp(-T * T / 2)),
            "panels": panels,
            "sigma": sigma,
        }
        return out, report
    return out


def _convolve(family, x, order, sigma, T, panels, lo, hi) -> np.ndarray:
    """Every member's smoothed order-th derivative at x: 8-point Gauss-Legendre
    on ``panels`` equal panels of [x - T sigma, x + T sigma], also cut at the
    continuation kinks lo and hi, as one basis evaluation and one weighted sum."""
    nodes, weights = _gauss_legendre(8)
    a_, b_ = x - T * sigma, x + T * sigma
    cuts = np.unique(np.concatenate([np.linspace(a_, b_, panels + 1), [lo, hi]]))
    cuts = cuts[(cuts >= a_) & (cuts <= b_)]
    mid = (cuts[:-1] + cuts[1:])[:, None] / 2
    half = (cuts[1:] - cuts[:-1])[:, None] / 2
    ys = (mid + half * nodes).ravel()
    w = (half * weights).ravel() * gaussian_kernel(x - ys, sigma, order)
    return w @ family.eval_grid(np.clip(ys, lo, hi))  # constant continuation


def kernel_tp_check(
    kernel,
    xgrid,
    ygrid,
    k: int = 2,
    extended: bool = False,
    budget: int = 100_000,
    seed: int = 0,
) -> dict:
    """Sampled strict-total-positivity check of order k.

    Tests all (or ``budget`` random) ordered k-tuples of rows/columns; the
    ETP variant uses derivative columns in y for repeated y entries and
    needs a kernel accepting an ``order`` argument.
    """
    xg = np.sort(np.asarray(xgrid, dtype=float))
    yg = np.sort(np.asarray(ygrid, dtype=float))
    if k > min(len(xg), len(yg)):
        raise ValueError("k exceeds grid sizes")

    rng = np.random.default_rng(seed)
    xcombos = list(itertools.combinations(range(len(xg)), k))
    if extended:
        ycombos = list(itertools.combinations_with_replacement(range(len(yg)), k))
    else:
        ycombos = list(itertools.combinations(range(len(yg)), k))
    total = len(xcombos) * len(ycombos)
    if total > budget:
        pairs = [
            (
                tuple(np.sort(rng.choice(len(xg), k, replace=False))),
                tuple(np.sort(rng.choice(len(yg), k, replace=not extended)))
                if extended
                else tuple(np.sort(rng.choice(len(yg), k, replace=False))),
            )
            for _ in range(budget)
        ]
        exhaustive = False
    else:
        pairs = [(xc, yc) for xc in xcombos for yc in ycombos]
        exhaustive = True

    min_det = math.inf
    counterexample = None
    for xc, yc in pairs:
        rows = []
        prev = None
        order = 0
        for yi in yc:
            order = order + 1 if prev == yi else 0
            prev = yi
            args = (order,) if order else ()  # plain K(x, y) needs no order
            rows.append([kernel(xg[xi], yg[yi], *args) for xi in xc])
        M = np.array(rows).T  # rows indexed by x, columns by (y, derivative)
        d = det(M)
        sc = det_scale(M)
        scaled = d / sc if sc > 0 else 0.0
        if scaled < min_det:
            min_det = scaled
        if d <= 0 or (sc > 0 and d <= 1e-12 * sc):
            counterexample = {
                "x": [float(xg[i]) for i in xc],
                "y": [float(yg[i]) for i in yc],
                "det": float(d),
            }
            break
    return {
        "passed": counterexample is None,
        "order": k,
        "extended": extended,
        "min_scaled_det": float(min_det),
        "counterexample": counterexample,
        "exhaustive": exhaustive,
    }
