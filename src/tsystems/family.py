"""Function families {f_0, ..., f_n} on an interval, half-line, or the real line.

A family is the raw material of every other module: it knows how to evaluate
each member and its derivatives exactly (no numerical differentiation happens
inside the library), and it carries the domain the system lives on.
"""

from __future__ import annotations

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


_SCALAR_POWER_CASES = (2.0, 0.5, -1.0)


def _power_columns(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Columns x**e_i, bit-identical to one np.power(x, e_i) call per column.

    With a scalar exponent numpy computes 2, 0.5 and -1 as square, square
    root and reciprocal, and pow otherwise; an array of exponents takes pow
    everywhere, which can differ in the last bit.  Those columns are
    recomputed with the scalar call so vectorizing changes no value.
    """
    out = np.power(x[:, None], e)
    for i, ei in enumerate(e.tolist()):
        if ei in _SCALAR_POWER_CASES:
            out[:, i] = np.power(x, ei)
    return out


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
        orders, one per point (row j is then f^(order[j])(xs[j])), so a whole
        block of derivative rows costs one call.  Raises DomainViolation for
        points outside the domain and NonDifferentiable for power families
        asked for derivatives at 0 with non-integer exponents.
        """
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        dom = self.domain
        if dom.kind != REAL_LINE:
            inside = flat >= dom.a
            if dom.kind == CLOSED_INTERVAL:
                inside &= flat <= dom.b
            if not inside.all():
                x = flat[int(np.argmin(inside))]
                raise DomainViolation(f"x = {x} outside {dom.kind}")
        if np.ndim(order) == 0:
            out = self._eval_flat(flat, int(order))
        else:
            orders = np.asarray(order, dtype=int)
            if orders.shape != flat.shape:
                raise ValueError(f"{orders.size} orders for {flat.size} points")
            out = np.empty((flat.size, self.size))
            for k in range(int(orders.max()) + 1 if orders.size else 0):
                rows = orders == k
                if rows.any():
                    out[rows] = self._eval_flat(flat[rows], k)
        return out.reshape(xs.shape + (self.size,)) if xs.ndim > 1 else out

    def _eval_flat(self, flat: np.ndarray, order: int) -> np.ndarray:
        """All members at once on a flat array of in-domain points."""
        if self.variant in ("power", "monomial"):
            return self._eval_power(flat, order)
        if self.variant == "exponential":
            alphas = np.asarray(self.params, dtype=float)
            vals = np.exp(flat[:, None] * alphas)
            return np.array([al**order for al in alphas]) * vals if order else vals
        if self.variant == "rational":
            alphas = np.asarray(self.params, dtype=float)
            den = flat[:, None] + alphas
            poles = np.any(den == 0, axis=0)
            if poles.any():
                al = alphas[int(np.argmax(poles))]
                raise DomainViolation(f"pole of 1/(x+{al}) inside evaluation set")
            return (-1.0) ** order * math.factorial(order) / den ** (order + 1)
        if self.variant == "custom":
            out = np.empty((flat.size, self.size))
            for i, ev in enumerate(self.evaluators):
                out[:, i] = [ev(float(x), order) for x in flat]
            return out
        raise ValueError(f"unknown variant {self.variant!r}")

    def _eval_power(self, flat: np.ndarray, order: int) -> np.ndarray:
        alphas = np.asarray(self.params, dtype=float)
        fac = np.ones(alphas.size)  # falling factorial alpha (alpha-1) ... (alpha-order+1)
        for j in range(order):
            fac = fac * (alphas - j)
        at_zero = None
        if not flat.all():
            at_zero = flat == 0.0
            is_int = (alphas >= 0) & (alphas == np.floor(alphas))
            if order >= 1 and not is_int.all():
                al = alphas[int(np.argmin(is_int))]
                raise NonDifferentiable(f"derivative of x^{al} at 0 requires a natural exponent")
            flat = np.where(at_zero, 1.0, flat)
        e = alphas - order
        if order:
            # a member whose order-th derivative vanishes identically gets +0 x^0:
            # x^(alpha - order) of a tiny x would overflow, and fac may be -0
            dead = fac == 0.0
            e = np.where(dead, 0.0, e)
            fac = np.where(dead, 0.0, fac)
        out = _power_columns(flat, e)
        if order:
            out *= fac
        if at_zero is not None:
            # the order-th derivative of x^alpha at 0 is order! for alpha = order, else 0
            out[at_zero] = np.where(is_int & (alphas == order), math.factorial(order), 0.0)
        return out

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
    return _checked(FamilySpec("monomial", tuple(int(d) for d in degrees), domain))


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
    as their derivative rows.
    """
    return FamilySpec("custom", (), domain, tuple(evaluators), name)


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
