"""The four benchmark workloads: a fixed instance corpus, the timed public
call for each instance, and the independent check of its output.

Each workload's corpus is a number of rounds of a fixed cycle of strata
(instance kinds and sizes), drawn once from CORPUS_SEED.  A run makes whole
passes over it, each pass in an order drawn from the run's seed, so every run
times the same calls: per-call costs are so heavy-tailed (solver fallbacks,
rare multi-second failures) that fresh instances per seed made the end-to-end
figures spread by 20-45% between seeds, and the calls that fail (the library's
known defects) are the same in every run.  Each run is a fresh process, so the
certificate cache of ``colloc`` starts empty; within a run, calls on a family
certified before (``best_approx`` on [-1, 1]) reuse its certificate, as a
user's repeated calls would.

Library functions are looked up on the ``tsystems`` modules at call time, so
the traced run's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import tsystems as ts
from tsystems import cli, moments
from tsystems.errors import TSystemError

import checks

TOL = 1e-8
CORPUS_SEED = 73  # the acceptance suite's seed
PASS_SECONDS = 10.0  # a pass over a corpus takes about this long on the reference core


@dataclass
class Instance:
    stratum: str
    args: dict
    output: Any = None
    error: str | None = None


@dataclass
class Workload:
    name: str
    strata: list
    make: Callable  # (rng, stratum) -> Instance
    call: Callable  # (Instance) -> output
    check: Callable  # (Instance) -> reason or None
    warmup: str  # stratum of the untimed warm-up call
    call_limit_s: float  # a call still running after this long is a failed call
    rounds: int  # the corpus is this many rounds of the strata cycle

    def _rng(self, seed: int, *extra) -> np.random.Generator:
        return np.random.default_rng([seed, zlib.crc32(self.name.encode()), *extra])

    @property
    def size(self) -> int:
        return self.rounds * len(self.strata)

    def corpus(self) -> list:
        rng = self._rng(CORPUS_SEED)
        return [self.make(rng, s) for _ in range(self.rounds) for s in self.strata]

    def stream(self, seed: int):
        """Endless instance stream: passes over the corpus in seeded orders."""
        corpus = self.corpus()
        order = self._rng(seed)
        while True:
            for i in order.permutation(len(corpus)):
                yield Instance(corpus[i].stratum, corpus[i].args)

    def calls(self, seconds: float) -> int:
        """Calls in a run of ``seconds``: one pass per PASS_SECONDS, so the
        count (and which calls fail) does not depend on the host's speed."""
        return max(1, round(self.size * seconds / PASS_SECONDS))

    def warmup_instance(self, seed: int) -> Instance:
        return self.make(self._rng(seed, 1), self.warmup)


# -- shared generators (the acceptance criteria's instance families) --------------


def random_nonneg_dense(deg: int, dom, rng) -> np.ndarray:
    """Dense nonnegative polynomial on the domain: square + weighted square."""
    g1 = rng.standard_normal(deg // 2 + 1)
    g2 = rng.standard_normal(max((deg - 1) // 2, 0) + 1)
    p = np.convolve(g1, g1)
    if dom.kind == "closed_interval":
        w = np.convolve(np.convolve([-dom.a, 1.0], [dom.b, -1.0]), np.convolve(g2, g2))
    elif dom.kind == "left_closed_halfline":
        w = np.convolve([0.0, 1.0], np.convolve(g2, g2))
    else:
        w = np.convolve(g2, g2)[: 2 * (deg // 2) + 1]
    out = np.zeros(max(len(p), len(w)))
    out[: len(p)] += p
    out[: len(w)] += w
    return out


def random_strictly_positive(deg: int, a: float, b: float, rng) -> np.ndarray:
    """Random monomial coefficients lifted to be strictly positive on [a, b]."""
    xs = np.linspace(a, b, 1001)
    coeffs = rng.standard_normal(deg + 1)
    vals = np.polynomial.polynomial.polyval(xs, coeffs)
    coeffs[0] += -min(float(vals.min()), 0.0) + 0.15 * float(np.max(np.abs(vals)))
    return coeffs


def power_exponents(n: int, rng) -> list:
    """Criterion 10's sparse exponent sets: 0 plus n distinct halves."""
    extra = np.sort(rng.choice(np.arange(1, 3 * n + 1), size=n, replace=False) * 0.5)
    return [0.0] + [float(e) for e in extra]


# -- karlin ------------------------------------------------------------------------

# (generator, degree): criterion 6(d) on random [a, b]; criterion 7 on
# [0.2, 1.7], [0, inf) and R.  Degrees 7-8 on [a, b] and 5-7 on the half-line
# are left out of timed runs (see README.md).
KARLIN_STRATA = (
    [f"c6:{n}" for n in range(2, 7)]
    + [f"ab:{d}" for d in range(2, 5)]
    + [f"halfline:{d}" for d in range(2, 4)]
    + [f"realline:{d}" for d in (2, 4, 6, 8)]
)


def karlin_make(rng, stratum: str) -> Instance:
    kind, deg = stratum.split(":")
    deg = int(deg)
    if kind == "c6":
        a, b = sorted(rng.uniform(-1.0, 2.0, 2))
        if b - a < 0.5:
            b = a + 0.5 + float(rng.uniform(0, 1))
        dom = ts.interval(a, b)
        coeffs = random_strictly_positive(deg, a, b, rng)
        init = "chebyshev" if rng.uniform() < 0.5 else "equispaced"
        return Instance(stratum, {"coeffs": coeffs, "domain": dom, "init": init})
    dom = {"ab": ts.interval(0.2, 1.7), "halfline": ts.halfline(0.0),
           "realline": ts.real_line()}[kind]
    while True:
        pd = random_nonneg_dense(deg, dom, rng)
        if dom.kind != "closed_interval" and pd[-1] <= 0:
            continue
        if dom.kind == "left_closed_halfline" and pd[0] <= 0:
            continue
        break
    args = {"coeffs": pd, "domain": dom}
    if kind == "halfline":
        grid = np.linspace(0, 50, 2000)
        strict = np.polyval(pd[::-1], grid).min() > 1e-9 * np.abs(pd).max()
        args["mode"] = "positive" if strict else "nonneg"
    return Instance(stratum, args)


def karlin_call(inst: Instance):
    a = inst.args
    fam = ts.monomial_family(list(range(len(a["coeffs"]))), a["domain"])
    f = ts.SparsePoly(tuple(a["coeffs"]), fam)
    kind = a["domain"].kind
    if kind == "closed_interval":
        return ts.decompose_pos_ab(f, init=a.get("init", "chebyshev"))
    if kind == "left_closed_halfline":
        return ts.decompose_halfline(f, mode=a["mode"])
    return ts.decompose_realline(f)


def karlin_check(inst: Instance):
    a = inst.args
    fam = ts.monomial_family(list(range(len(a["coeffs"]))), a["domain"])
    f = ts.SparsePoly(tuple(a["coeffs"]), fam)
    oracle = ts.lukacs_decompose(a["coeffs"], a["domain"])
    return checks.check_karlin(f, inst.output, oracle)


# -- moment_dual ---------------------------------------------------------------------

# order n and domain; orders >= 3 are left out of timed runs (see README.md).
# Interval and half-line calls cost about 600 and 700 ms: an even mix would put
# the median between the two clusters, where it jumps from run to run.
DUAL_STRATA = ["2:ab", "2:halfline", "2:ab"]


def dual_make(rng, stratum: str) -> Instance:
    """Criterion 10's functional from an atomic measure, moved out of the cone
    along the extremal nonnegative polynomial with doubles at the atoms."""
    n, kind = stratum.split(":")
    n = int(n)
    on_halfline = kind == "halfline"
    dom = ts.halfline(0.0) if on_halfline else ts.interval(0.1, 1.2)
    lo, hi = (0.08, 2.5) if on_halfline else (0.12, 1.18)
    while True:
        fam = ts.power_family(power_exponents(n, rng), dom)
        k = int(rng.integers(1, min(4, n // 2) + 1))
        pos = np.sort(rng.uniform(lo, hi, k))
        if len(pos) > 1 and np.min(np.diff(pos)) < 0.08:
            continue
        wts = rng.uniform(0.2, 1.0, k)
        L = moments.MomentFunctional.from_measure(fam, list(zip(pos, wts)))
        scale = float(np.max(np.abs(L.s)))
        # doubles at the atoms, padded to index n (criterion 10)
        pad = n - 2 * len(pos)
        nodes = [(float(x), 2) for x in pos]
        fill = []
        while 2 * len(fill) < pad - (pad % 2):
            cand = float(rng.uniform(lo, hi))
            if all(abs(cand - q) > 0.07 for q, _ in nodes + fill):
                fill.append((cand, 2))
        nodes += fill
        if pad % 2 == 1:
            nodes.append((0.0 if on_halfline else 0.1, 1))
        try:
            p_hat = ts.poly_from_zeros(fam, ts.NodeSet.of(*nodes), check_certificate=False)
        except TSystemError:
            continue
        if abs(p_hat.a[0]) < 0.3:
            continue
        s = np.array(L.s)
        if kind != "warm":  # the warm-up solves the cheap feasible functional
            s[0] -= 10 * scale * TOL * math.copysign(1.0, p_hat.a[0])
        return Instance(stratum, {"family": fam, "s": s})


def dual_call(inst: Instance):
    L = moments.MomentFunctional(tuple(inst.args["s"]), inst.args["family"])
    return ts.sparse_feasibility(L, tol=TOL)


def dual_check(inst: Instance):
    return checks.check_certificate(inst.args["s"], inst.output)


# -- moment_primal -------------------------------------------------------------------

# (order, atoms, domain): one atom, or ceil(n/2) atoms, where feasible
# functionals have come back "not feasible".  Two single-atom functionals per
# multi-atom one: single-atom solves take about 0.1 s and multi-atom ones
# 0.2-2 s, and an even split would put the median between the two clusters,
# where it jumps from run to run.
PRIMAL_STRATA = [
    f"{n}:{k}:{dom}"
    for dom in ("ab", "halfline")
    for n in range(2, 7)
    for k in ((1, 1) if n == 2 else (1, 1, -(-n // 2)))
]


def primal_make(rng, stratum: str) -> Instance:
    n, k, kind = stratum.split(":")
    n, k = int(n), int(k)
    dom = ts.halfline(0.0) if kind == "halfline" else ts.interval(0.1, 1.2)
    lo, hi = (0.08, 2.5) if kind == "halfline" else (0.12, 1.18)
    fam = ts.power_family(power_exponents(n, rng), dom)
    while True:
        pos = np.sort(rng.uniform(lo, hi, k))
        if k == 1 or np.min(np.diff(pos)) >= 0.08:
            break
    wts = rng.uniform(0.2, 1.0, k)
    s = np.zeros(fam.size)
    for x, w in zip(pos, wts):
        s += w * checks.basis_values(fam.params, fam.variant, np.array([x]))[0]
    return Instance(stratum, {"family": fam, "s": s})


def primal_call(inst: Instance):
    L = moments.MomentFunctional(tuple(inst.args["s"]), inst.args["family"])
    verdict = ts.sparse_feasibility(L, tol=TOL)
    measure = ts.recover_atoms(L, tol=TOL)
    return verdict, measure


def primal_check(inst: Instance):
    verdict, measure = inst.output
    return checks.check_primal(inst.args["family"], inst.args["s"], verdict, measure, TOL)


# -- desk ----------------------------------------------------------------------------

CLI_COMMANDS = ["certify", "decompose", "build-poly", "snake", "approx",
                "moments-check", "moments-recover"]

# kind:size; the sizes and the README command rotate with the round, so every
# run sees the same mix of sizes and commands
DESK_STRATA = [
    stratum
    for r, command in enumerate(CLI_COMMANDS)
    for j in [r % 3]
    for stratum in (f"certify:T:{2 + j}", f"certify:ET:{2 + j}", f"certify:ECT:{2 + j}",
                    "certify:refute:2", f"zeros:{2 + j}", f"best_approx:{1 + j}",
                    f"snake:{2 + j}", f"smooth:{1 + j}", f"cli:{command}")
]


def _num(x: float) -> str:
    return f"{x:.4g}"


def fresh_power_family(rng, n: int):
    """A Descartes system x^alpha on a positive interval: ECT, hence T and ET."""
    a = float(np.round(rng.uniform(0.2, 0.8), 4))
    b = float(np.round(a + rng.uniform(0.8, 2.0), 4))
    return ts.power_family(power_exponents(n, rng), ts.interval(a, b))


def cli_argv(rng, command: str) -> list:
    """A README command with seeded family strings (each exits with code 0)."""
    if command == "certify":
        e = power_exponents(2, rng)
        a = rng.uniform(0.2, 0.8)
        argv = ["certify", "--family", "power:" + ",".join(_num(x) for x in e),
                "--domain", f"{_num(a)},{_num(a + rng.uniform(0.8, 2))}", "--target", "ect"]
    elif command == "decompose":
        alpha = float(rng.choice([0.5, 1.0, 1.5, 2.0, 2.5]))
        argv = ["decompose", "--mode", "pos_ab", "--family", f"power:0,{alpha}",
                "--domain", "0,1", "--coeffs", f"{_num(rng.uniform(0.5, 2))},0"]
    elif command == "build-poly":
        argv = ["build-poly", "--family", "monomial:0,1,2", "--domain", "0,1",
                "--nodes", f"{_num(rng.uniform(0.1, 0.9))}:2", "--count"]
    elif command == "snake":
        c = rng.uniform(0.5, 2.0)
        argv = ["snake", "--family", "monomial:0,1", f"--domain=-{_num(c)},{_num(c)}",
                "--g1=-1", "--g2=1"]
    elif command == "approx":
        c = rng.standard_normal(3)
        argv = ["approx", "--family", "monomial:0,1", "--domain=-1,1",
                "--target-fn", "monomial:0,1,2", "--coeffs=" + ",".join(_num(x) for x in c)]
    elif command == "moments-check":
        pos = rng.uniform(-1, 1, 2)
        w = rng.uniform(0.2, 1.0, 2)
        m = [float(np.sum(w * pos**k)) for k in range(3)]
        argv = ["moments-check", "--moments=" + ",".join(repr(x) for x in m),
                "--variant", "hamburger"]
    else:
        pos = np.sort(rng.uniform(0.1, 0.9, 2))
        w = rng.uniform(0.2, 1.0, 2)
        m = [float(np.sum(w * pos**k)) for k in range(4)]
        argv = ["moments-recover", "--family", "monomial:0,1,2,3", "--domain", "0,1",
                "--moments", ",".join(repr(x) for x in m)]
    return argv


def run_cli(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def desk_make(rng, stratum: str) -> Instance:
    kind, _, rest = stratum.partition(":")
    if kind == "cli":
        return Instance(stratum, {"argv": cli_argv(rng, rest)})
    target, _, size = rest.rpartition(":")
    n = int(size)
    if kind == "certify":
        if target == "refute":
            # {1, x, x^3} on an interval with 0 inside: x^3 - c^2 x has 3 zeros
            a = float(np.round(rng.uniform(0.3, 1.0), 4))
            b = float(np.round(rng.uniform(0.3, 1.0), 4))
            fam = ts.monomial_family([0, 1, 3], ts.interval(-a, b))
            return Instance(stratum, {"family": fam, "target": "T", "expected": "none"})
        return Instance(stratum, {"family": fresh_power_family(rng, n), "target": target,
                                  "expected": target})
    if kind == "zeros":
        fam = fresh_power_family(rng, n)
        a, b = fam.domain.a, fam.domain.b
        while True:
            pts = np.sort(rng.uniform(a + 0.1 * (b - a), b - 0.1 * (b - a), n // 2))
            if len(pts) < 2 or np.min(np.diff(pts)) > 0.05 * (b - a):
                break
        nodes = [(float(x), 2) for x in pts] + ([(a, 1)] if n % 2 else [])
        return Instance(stratum, {"family": fam, "nodes": nodes})
    if kind == "best_approx":
        fam = ts.monomial_family(list(range(n + 1)), ts.interval(-1, 1))
        ext = ts.monomial_family(list(range(n + 3)), ts.interval(-1, 1))
        target = ts.SparsePoly(tuple(rng.standard_normal(n + 3)), ext)
        return Instance(stratum, {"family": fam, "target": target})
    if kind == "snake":
        a = float(rng.uniform(-1.0, 0.5))
        b = a + float(rng.uniform(0.5, 2.5))
        fam = ts.monomial_family(list(range(n + 1)), ts.interval(a, b))
        which = "f_star" if rng.uniform() < 0.5 else "f_upper_star"
        return Instance(stratum, {"family": fam, "which": which})
    if kind == "smooth":
        # smooth members: x^0.5 and kin have no bounded quadrature error at 0
        degrees = [0] + sorted(rng.choice(np.arange(1, 6), size=n, replace=False).tolist())
        fam = ts.monomial_family(degrees, ts.interval(0, 1))
        sigma = float(np.round(rng.uniform(0.03, 0.08), 4))
        return Instance(stratum, {"family": fam, "sigma": sigma,
                                  "points": rng.uniform(0.0, 1.0, 2)})
    raise ValueError(f"unknown desk stratum {stratum!r}")


def desk_call(inst: Instance):
    kind = inst.stratum.partition(":")[0]
    a = inst.args
    if kind == "certify":
        return ts.certify(a["family"], a["target"])
    if kind == "zeros":
        p = ts.poly_from_zeros(a["family"], ts.NodeSet.of(*a["nodes"]), check_certificate=False)
        return ts.count_zeros(p)
    if kind == "best_approx":
        return ts.best_approx(a["family"], a["target"])
    if kind == "snake":
        return ts.snake(a["family"], -1.0, 1.0, which=a["which"])
    if kind == "smooth":
        return ts.gaussian_smooth(a["family"], ts.KernelSpec("gaussian", a["sigma"]))
    return run_cli(a["argv"])


def desk_check(inst: Instance):
    kind = inst.stratum.partition(":")[0]
    a, out = inst.args, inst.output
    if kind == "certify":
        return checks.check_certify(out, a["expected"])
    if kind == "zeros":
        return checks.check_zero_round_trip(a["nodes"], out, a["family"].domain)
    if kind == "best_approx":
        return checks.check_best_approx(a["family"], a["target"], out)
    if kind == "snake":
        return checks.check_snake(a["family"], out, a["which"])
    if kind == "smooth":
        return checks.check_smooth(a["family"], out, a["sigma"], a["points"])
    code, text = out
    if code != 0:
        return f"exit code {code}"
    try:
        json.loads(text)
    except ValueError:
        return "output is not JSON"
    if run_cli(a["argv"]) != (code, text):
        return "second run of the same argv differs"
    return None


WORKLOADS = {
    "karlin": Workload("karlin", KARLIN_STRATA, karlin_make, karlin_call, karlin_check,
                       warmup="c6:2", call_limit_s=20.0, rounds=4),
    "moment_dual": Workload("moment_dual", DUAL_STRATA, dual_make, dual_call, dual_check,
                            warmup="2:warm", call_limit_s=10.0, rounds=8),
    "moment_primal": Workload("moment_primal", PRIMAL_STRATA, primal_make, primal_call,
                              primal_check, warmup="2:1:ab", call_limit_s=8.0, rounds=2),
    "desk": Workload("desk", DESK_STRATA, desk_make, desk_call, desk_check,
                     warmup="zeros:2", call_limit_s=10.0, rounds=2),
}
