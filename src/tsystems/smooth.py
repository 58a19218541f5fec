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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .colloc import _collapsed, _confluent_orders, _tuple_chunks, det
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

    Screens the minors det K(x_i, y_j) of increasing x-tuples against
    increasing y-tuples, or non-decreasing ones for the ETP variant, whose
    repeated y entries become derivative columns in y (the kernel must then
    accept an ``order`` argument).  All pairs are screened when their count
    fits the budget, else ``budget`` random pairs; the tuples and their
    derivative orders are certify's.  The kernel is called once per
    (x, y, order) that the screened minors use.  As in certify, a
    counterexample is a minor <= 0 in long-double arithmetic, or one with a
    collapsed row; a small positive minor refutes nothing, and
    ``min_scaled_det``, the least minor over its product of row max-norms,
    carries the margin.
    """
    xg = np.sort(np.asarray(xgrid, dtype=float))
    yg = np.sort(np.asarray(ygrid, dtype=float))
    if k > min(len(xg), len(yg)):
        raise ValueError("k exceeds grid sizes")
    fx, *xt = _tuple_chunks(len(xg), k - 1, "T", budget, seed)
    fy, *yt = _tuple_chunks(len(yg), k - 1, "ET" if extended else "T", budget, seed + 1)
    xt, yt = np.concatenate(xt), np.concatenate(yt)
    exhaustive = fx and fy and len(xt) * len(yt) <= budget
    if exhaustive:  # in the order of x-tuples, then y-tuples
        xi, yi = np.indices((len(xt), len(yt))).reshape(2, -1)
    else:
        rng = np.random.default_rng(seed + 2)
        xi, yi = rng.integers(0, len(xt), budget), rng.integers(0, len(yt), budget)
    yo = _confluent_orders(yt)

    @functools.cache  # the kernel once per (order, x, y) that a minor uses
    def value(o, i, j):
        return float(kernel(xg[i], yg[j], o) if o else kernel(xg[i], yg[j]))

    min_scaled = math.inf
    counterexample = None
    for start in range(0, len(xi), 20_000):
        part = slice(start, start + 20_000)
        xc, yc, oc = xt[xi[part]], yt[yi[part]], yo[yi[part]]
        mats = np.array([[[value(o, i, j) for j, o in zip(yy, oo)] for i in xx]  # rows by x
                         for xx, yy, oo in zip(xc.tolist(), yc.tolist(), oc.tolist())])
        dets = np.linalg.det(mats)
        scales = np.prod(np.max(np.abs(mats), axis=2), axis=1)
        scaled = np.divide(dets, scales, out=np.zeros_like(dets), where=scales > 0)
        suspicious = np.nonzero(dets <= 0)[0]
        for i in suspicious[np.argsort(scaled[suspicious], kind="stable")]:
            d = det(mats[i])
            if scales[i] > 0:  # the long-double minor, not its float64 estimate
                scaled[i] = d / scales[i]
            if d <= 0 or _collapsed(mats[i]):
                counterexample = {"x": xg[xc[i]].tolist(), "y": yg[yc[i]].tolist(), "det": float(d)}
                break
        min_scaled = min(min_scaled, float(scaled.min()))
        if counterexample is not None:
            break
    return {
        "passed": counterexample is None,
        "order": k,
        "extended": extended,
        "min_scaled_det": float(min_scaled),
        "counterexample": counterexample,
        "exhaustive": exhaustive,
    }
