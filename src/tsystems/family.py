"""Function families {f_0, ..., f_n} on an interval, half-line, or the real line.

A family is the raw material of every other module: it knows how to evaluate
each member and its derivatives exactly (no numerical differentiation happens
inside the library), and it carries the domain the system lives on.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainViolation, NonDifferentiable

CLOSED_INTERVAL = "closed_interval"
LEFT_CLOSED_HALFLINE = "left_closed_halfline"
REAL_LINE = "real_line"


@dataclass(frozen=True)
class Domain:
    """One of [a, b], [a, inf), or the whole real line."""

    kind: str
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.kind not in (CLOSED_INTERVAL, LEFT_CLOSED_HALFLINE, REAL_LINE):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == CLOSED_INTERVAL:
            if self.a is None or self.b is None or not self.a < self.b:
                raise ValueError("closed_interval requires a < b")
        if self.kind == LEFT_CLOSED_HALFLINE:
            if self.a is None or not math.isfinite(self.a):
                raise ValueError("left_closed_halfline requires finite a")

    def contains(self, x: float) -> bool:
        if self.kind == REAL_LINE:
            return True
        if self.kind == LEFT_CLOSED_HALFLINE:
            return x >= self.a
        return self.a <= x <= self.b

    def is_endpoint(self, x: float) -> bool:
        """x is a closed end of the domain: a or b of [a, b], a of [a, inf)."""
        if self.kind == CLOSED_INTERVAL:
            return x == self.a or x == self.b
        return self.kind == LEFT_CLOSED_HALFLINE and x == self.a

    @property
    def inf(self) -> float:
        return -math.inf if self.kind == REAL_LINE else float(self.a)

    @property
    def width(self) -> float:
        """Finite width for intervals; callers truncate non-compact domains."""
        if self.kind == CLOSED_INTERVAL:
            return float(self.b - self.a)
        return math.inf

    def window(self, span: float = 10.0) -> tuple[float, float]:
        """A compact working window: the interval itself, or a truncation."""
        if self.kind == CLOSED_INTERVAL:
            return float(self.a), float(self.b)
        if self.kind == LEFT_CLOSED_HALFLINE:
            return float(self.a), float(self.a) + span
        return -span, span

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.a is not None:
            d["a"] = self.a
        if self.b is not None:
            d["b"] = self.b
        return d

    @staticmethod
    def from_dict(d: dict) -> "Domain":
        return Domain(d["kind"], d.get("a"), d.get("b"))


def interval(a: float, b: float) -> Domain:
    return Domain(CLOSED_INTERVAL, float(a), float(b))


def halfline(a: float = 0.0) -> Domain:
    return Domain(LEFT_CLOSED_HALFLINE, float(a))


def real_line() -> Domain:
    return Domain(REAL_LINE)


#: numpy computes a scalar exponent 2, 0.5 or -1 as square, square root and
#: reciprocal; an array of exponents takes pow everywhere, which can differ in
#: the last bit, so those entries are recomputed with the scalar call
_SCALAR_POWER_CASES = (2.0, 0.5, -1.0)


class _PowerPlan:
    """Per-order tables for evaluating the members x^alpha_i of a power or
    monomial family, built once per (variant, params) (``_power_plan``) and
    grown when a higher derivative order is asked for.

    Row k of each table belongs to derivative order k, so a block of rows
    with orders k_j is one gather and one broadcast
    x_j^exps[k_j] * facs[k_j].  ``facs[k]`` is the falling factorial
    alpha (alpha - 1) ... (alpha - k + 1); a member whose k-th derivative
    vanishes identically gets +0 x^0, since x^(alpha - k) of a tiny x would
    overflow and the factorial may be -0.  ``zeros[k]`` is the k-th
    derivative at x = 0 (k! for alpha = k, else 0), defined only for natural
    alpha; ``rough`` is the first exponent that is not.  ``fixups[k]`` lists
    the (exponent, column) pairs of order k that the scalar call computes
    (see _SCALAR_POWER_CASES), ``special`` marks them in one table.
    numpy's pow takes a slow scalar path on a negative base, so at x < 0 a
    natural exponent e gives ``signs`` (-1)^e times |x|^e, within 1 ulp of
    numpy's pow; other exponents keep numpy's pow there.

    The gathered tables of a block are kept, least recently used first out,
    for BLOCK_COUNT order patterns of at most 3 (n+1) rows.  That covers the
    blocks a search evaluates at every step: n node rows with the midpoint
    and curvature rows of an extremal pattern, or with the curvature and
    touch-point rows of a Karlin system.  Over one pass of each benchmark
    corpus a plan met at most 4 such patterns.
    """

    BLOCK_COUNT = 16

    def __init__(self, params: tuple):
        self.alphas = np.asarray(params, dtype=float)
        self.natural = (self.alphas >= 0) & (self.alphas == np.floor(self.alphas))
        self.rough = None if self.natural.all() else self.alphas[int(np.argmin(self.natural))]
        kept = functools.partial(self._block, kept=True)
        self._kept_block = functools.lru_cache(maxsize=self.BLOCK_COUNT)(kept)
        self._tabulate(self.alphas.size + 2)

    def _tabulate(self, orders: int) -> None:
        al = self.alphas
        fac = np.ones(al.size)
        exps, facs, zeros = [], [], []
        for k in range(orders):
            if k:
                fac = fac * (al - (k - 1))
            dead = fac == 0.0
            exps.append(np.where(dead, 0.0, al - k))
            facs.append(np.where(dead, 0.0, fac))
            zeros.append(np.where(self.natural & (al == k), math.factorial(k), 0.0))
        self.exps, self.facs, self.zeros = np.array(exps), np.array(facs), np.array(zeros)
        self.signs = np.where(self.natural & (self.exps % 2 == 1), -1.0, 1.0)
        for table in (self.exps, self.facs, self.zeros, self.signs):
            table.flags.writeable = False  # shared by every family with these params
        self.special = np.isin(self.exps, _SCALAR_POWER_CASES)
        self.fixups = [tuple((e, i) for i, e in enumerate(row) if e in _SCALAR_POWER_CASES)
                       for row in self.exps.tolist()]

    def eval(self, x: np.ndarray, order, signed=False) -> np.ndarray:
        """Rows f^(k)(x_j) on a flat array of in-domain points; ``order`` is
        one natural k for every point or an int array of them, one per point;
        ``signed`` when some point may lie below 0."""
        mixed = isinstance(order, np.ndarray)
        if mixed:
            small = order.size <= 3 * self.alphas.size
            e, fac, fixups, signs = (self._kept_block if small else self._block)(order.tobytes())
        else:
            if order >= len(self.exps):
                self._tabulate(order + 1)
            e, fac, signs = self.exps[order], self.facs[order] if order else None, None
        at_zero = None
        if np.count_nonzero(x) != x.size:
            at_zero = x == 0.0
            if self.rough is not None and (order[at_zero].any() if mixed else order >= 1):
                raise NonDifferentiable(f"derivative of x^{self.rough} at 0 requires a natural exponent")
            x = np.where(at_zero, 1.0, x)
        if signed and np.fmin.reduce(x, initial=0.0) < 0:  # fmin: a NaN hides no negative point
            neg, x = x < 0, np.abs(x)
        else:
            neg = None
        out = np.power(x[:, None], e)
        if mixed:
            flat_out = out.ravel()
            for s, rows, entries in fixups:
                flat_out[entries] = np.power(x[rows], s)
        else:
            for s, i in self.fixups[order]:
                out[:, i] = np.power(x, s)
        if fac is not None:
            out *= fac
        if at_zero is not None:
            out[at_zero] = self.zeros[order[at_zero] if mixed else order]
        if neg is not None:
            np.multiply(out, self.signs[order] if signs is None else signs, out=out, where=neg[:, None])
            if self.rough is not None:  # numpy's pow at -|x| = x
                rough = ~self.natural
                out[np.ix_(neg, rough)] = self.eval(-x[neg], order[neg] if mixed else order)[:, rough]
        return out

    def _block(self, key: bytes, kept: bool = False) -> tuple:
        """(exponents, factorials, fixups, signs: None unless ``kept``) of a
        block of rows whose orders are the int array with bytes ``key``; fixups
        are (s, rows, flat entries) of the exponents s the scalar call computes."""
        order = np.frombuffer(key, dtype=int)
        if order.size and order.max() >= len(self.exps):
            self._tabulate(int(order.max()) + 1)
        e = self.exps[order]
        rows, cols = np.nonzero(self.special[order])
        fixups = []
        for s in _SCALAR_POWER_CASES:
            hit = e[rows, cols] == s
            if hit.any():
                fixups.append((s, rows[hit], rows[hit] * e.shape[1] + cols[hit]))
        fac, signs = self.facs[order], self.signs[order] if kept else None
        e.flags.writeable = fac.flags.writeable = False  # kept for later calls
        return e, fac, tuple(fixups), signs


@functools.lru_cache(maxsize=256)
def _power_plan(variant: str, params: tuple) -> _PowerPlan:
    """The shared evaluation plan of every power/monomial FamilySpec with these
    params, such as the sub-families the extremal patterns build per call.
    Callers key it on the params as a float tuple, so an array of them works."""
    return _PowerPlan(params)


@dataclass(frozen=True)
class FamilySpec:
    """An ordered family of real functions with exact derivative evaluation.

    Variants
    --------
    power        f_i(x) = x**alpha_i              (alpha real, strictly increasing)
    monomial     f_i(x) = x**d_i                  (d_i natural numbers)
    exponential  f_i(x) = exp(alpha_i * x)
    rational     f_i(x) = 1 / (x + alpha_i)
    custom       caller-supplied evaluators e_i(x, order) -> f_i^(order)(x)
    """

    variant: str
    params: tuple = ()
    domain: Domain = field(default_factory=real_line)
    evaluators: tuple = ()
    name: str = ""

    @property
    def size(self) -> int:
        """Number of members n+1."""
        if self.variant == "custom":
            return len(self.evaluators)
        return len(self.params)

    @property
    def order(self) -> int:
        """System order n."""
        return self.size - 1

    # -- evaluation ---------------------------------------------------------

    def eval_one(self, i: int, x: float, order: int = 0) -> float:
        """f_i^(order)(x) for a single member at a single point."""
        return float(self.eval_grid(np.array([x]), order)[0, i])

    def eval_grid(self, xs: np.ndarray, order=0) -> np.ndarray:
        """Matrix of f_i^(order)(x) with shape (len(xs), size).

        ``order`` is one derivative order for every point, or a sequence of
        natural orders, one per point (row j is then f^(order[j])(xs[j])), so
        a whole block of derivative rows costs one call.  Power and monomial
        families evaluate any block as one broadcast x_j^(alpha - k_j) *
        fac[k_j] from their evaluation plan (_PowerPlan), which is built once
        per (variant, params) and is no part of the family's identity; every
        row equals, bit for bit, the one-order call at its point.  Raises
        DomainViolation for points outside the domain and NonDifferentiable
        for power families asked, in some row at 0, for a derivative of
        order >= 1 of a non-natural exponent.
        """
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        dom = self.domain
        if dom.kind != REAL_LINE:
            hi = dom.b if dom.kind == CLOSED_INTERVAL else math.inf
            # a small block is checked on floats: there numpy's per-call cost dominates
            if not (all(dom.a <= x <= hi for x in flat.tolist()) if flat.size <= 32
                    else np.count_nonzero((flat >= dom.a) & (flat <= hi)) == flat.size):
                x = flat[int(np.argmin((flat >= dom.a) & (flat <= hi)))]
                raise DomainViolation(f"x = {x} outside {dom.kind}")
        if isinstance(order, (int, np.integer)):
            order = int(order)
        else:
            order = np.asarray(order, dtype=int)
            if order.ndim == 0:
                order = int(order)
            elif order.shape != flat.shape:
                raise ValueError(f"{order.size} orders for {flat.size} points")
        out = self._eval_flat(flat, order)
        return out.reshape(xs.shape + (self.size,)) if xs.ndim > 1 else out

    def _eval_flat(self, flat: np.ndarray, order) -> np.ndarray:
        """All members at once on a flat array of in-domain points; ``order``
        is an int or an int array with one order per point."""
        if self.variant in ("power", "monomial"):
            plan = _power_plan(self.variant, tuple(map(float, self.params)))
            return plan.eval(flat, order, self.domain.inf < 0)
        mixed = isinstance(order, np.ndarray)
        if self.variant == "exponential":
            alphas = np.asarray(self.params, dtype=float)
            vals = np.exp(flat[:, None] * alphas)
            top = int(np.max(order)) if np.size(order) else 0
            return np.array([[al**k for al in alphas] for k in range(top + 1)])[order] * vals
        if self.variant == "rational":
            alphas = np.asarray(self.params, dtype=float)
            den = flat[:, None] + alphas
            poles = np.any(den == 0, axis=0)
            if poles.any():
                al = alphas[int(np.argmax(poles))]
                raise DomainViolation(f"pole of 1/(x+{al}) inside evaluation set")
            if not mixed:
                return (-1.0) ** order * math.factorial(order) / den ** (order + 1)
            top = int(order.max()) if order.size else 0
            sign_fac = np.array([(-1.0) ** k * math.factorial(k) for k in range(top + 1)])
            powers = np.power(den, order[:, None] + 1.0)
            squared = order == 1  # the scalar exponent 2 squares
            powers[squared] = np.power(den[squared], 2.0)
            return sign_fac[order][:, None] / powers
        if self.variant == "custom":
            orders = order.tolist() if mixed else [order] * flat.size
            out = np.empty((flat.size, self.size))
            for i, ev in enumerate(self.evaluators):
                out[:, i] = [ev(float(x), k) for x, k in zip(flat, orders)]
            return out
        raise ValueError(f"unknown variant {self.variant!r}")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        if self.variant == "custom":
            raise ValueError("custom families are code-only, not serializable")
        return {
            "variant": self.variant,
            "params": list(self.params),
            "domain": self.domain.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_dict(d: dict) -> "FamilySpec":
        return FamilySpec(d["variant"], tuple(d["params"]), Domain.from_dict(d["domain"]))

    @staticmethod
    def from_json(s: str) -> "FamilySpec":
        return FamilySpec.from_dict(json.loads(s))


@dataclass(frozen=True)
class Validation:
    ok: bool
    violations: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def validate(family: FamilySpec) -> Validation:
    """Check every FamilySpec invariant; returns a verdict, never raises."""
    v: list[str] = []
    if family.variant == "custom":
        if family.size == 0:
            v.append("custom family has no evaluators")
        return Validation(not v, tuple(v))

    params = list(family.params)
    if len(params) == 0:
        v.append("empty parameter sequence")
    if any(params[i] >= params[i + 1] for i in range(len(params) - 1)):
        v.append("parameter sequence not strictly increasing")

    dom = family.domain
    if family.variant == "power":
        if dom.contains(0.0):
            if params and params[0] != 0:
                v.append(f"α_0 = {params[0]} ≠ 0 with 0 in domain")
            if any(p < 0 for p in params):
                v.append("negative exponent with 0 in domain")
        if any(p < 0 for p in params) and not dom.inf > 0:
            v.append("negative exponents require domain inf > 0")
        if any(not float(p).is_integer() for p in params) and dom.inf < 0:
            v.append("non-integer exponents require domain inf ≥ 0")
    elif family.variant == "monomial":
        if any(p < 0 or not float(p).is_integer() for p in params):
            v.append("monomial degrees must be naturals")
    elif family.variant == "rational":
        if params and not (-params[0] < dom.inf):
            v.append(f"−α_0 = {-params[0]} ≥ a = {dom.inf}")
    elif family.variant not in ("exponential",):
        v.append(f"unknown variant {family.variant!r}")
    return Validation(not v, tuple(v))


def _checked(family: FamilySpec) -> FamilySpec:
    verdict = validate(family)
    if not verdict.ok:
        raise ValueError("; ".join(verdict.violations))
    return family


def power_family(exponents: Sequence[float], domain: Domain) -> FamilySpec:
    return _checked(FamilySpec("power", tuple(float(e) for e in exponents), domain))


def monomial_family(degrees: Sequence[int], domain: Domain) -> FamilySpec:
    degrees = tuple(degrees)
    _checked(FamilySpec("monomial", degrees, domain))  # before int() can truncate 1.5 to 1
    return FamilySpec("monomial", tuple(int(d) for d in degrees), domain)


def exponential_family(rates: Sequence[float], domain: Domain) -> FamilySpec:
    return _checked(FamilySpec("exponential", tuple(float(r) for r in rates), domain))


def rational_family(shifts: Sequence[float], domain: Domain) -> FamilySpec:
    return _checked(FamilySpec("rational", tuple(float(s) for s in shifts), domain))


def custom_family(
    evaluators: Sequence[Callable[[float, int], float]],
    domain: Domain,
    name: str = "",
) -> FamilySpec:
    """Family from caller-supplied evaluators e(x, order).

    Evaluators must return exact analytic derivatives; the library refuses to
    differentiate numerically because confluent determinants are only as good
    as their derivative rows.  They must also be pure: the moment engine's
    last result is reused for the same evaluator objects, so an evaluator
    whose output changes between calls can be served a stale result.
    """
    return FamilySpec("custom", (), domain, tuple(evaluators), name)


def _subfamily(family: FamilySpec, cols: slice) -> FamilySpec:
    """The members ``cols`` of a family, custom evaluators included."""
    if family.variant == "custom":
        return FamilySpec("custom", (), family.domain, family.evaluators[cols], family.name)
    return FamilySpec(family.variant, family.params[cols], family.domain)


def eval_basis(family: FamilySpec, x: float, order: int = 0) -> np.ndarray:
    """Vector (f_0^(order)(x), ..., f_n^(order)(x))."""
    return family.eval_grid(np.array([float(x)]), order)[0]


def halfline_xmax(family: FamilySpec) -> float:
    """Width of the working window on a half-line: where the top member of a
    power family dominates, 10^(6/alpha_n), at least 10 and at most 10^30
    (10^6 for other variants)."""
    alpha_n = float(family.params[-1]) if family.variant in ("power", "monomial") else 1.0
    if alpha_n <= 0:
        return 10.0
    return max(10.0, 10.0 ** min(6.0 / alpha_n, 30.0))
