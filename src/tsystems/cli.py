"""Command-line front end: problem files, subcommand dispatch, JSON/CSV output.

Exit codes: 0 success, 1 usage/parse error, 2 infeasible/refuted,
3 undecided/no-convergence.  All randomness is seeded and the seed is echoed
in the output, so identical invocations produce byte-identical JSON.

Each subcommand but ``run`` is one row of ``COMMANDS``: its flags, library
call, JSON, exit rule, reported errors and plot columns.  ``_run_command``
does the steps they share.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import family as fam_mod
from .colloc import certify
from .errors import NoConvergence, NoSeparator, NotFeasible, TSystemError
from .family import Domain, FamilySpec
from .karlin import (
    decompose_halfline,
    decompose_nonneg_ab,
    decompose_pos_ab,
    decompose_realline,
)
from .moments import (
    MomentFunctional,
    hankel_check,
    recover_atoms,
    sparse_feasibility,
)
from .smooth import KernelSpec, gaussian_smooth
from .snake import best_approx, optimize_ratio, snake
from .zeros import NodeSet, SparsePoly, count_zeros, poly_from_zeros

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2
EXIT_UNDECIDED = 3


def parse_domain(text: str) -> Domain:
    t = text.strip()
    if t in ("R", "r", "real", "real_line"):
        return fam_mod.real_line()
    parts = t.split(",")
    if len(parts) != 2:
        raise ValueError(f"domain must be 'a,b', 'a,inf', or 'R', not {text!r}")
    a = float(parts[0])
    if parts[1].strip() in ("inf", "Inf", "INF"):
        return fam_mod.halfline(a)
    return fam_mod.interval(a, float(parts[1]))


def parse_family(text: str, domain: Domain) -> FamilySpec:
    if ":" not in text:
        raise ValueError(f"family must look like 'power:0,2,3', not {text!r}")
    variant, params = text.split(":", 1)
    values = tuple(float(v) for v in params.split(","))
    variant = variant.strip().lower()
    makers = {
        "power": fam_mod.power_family,
        "monomial": fam_mod.monomial_family,
        "exponential": fam_mod.exponential_family,
        "rational": fam_mod.rational_family,
    }
    if variant not in makers:
        raise ValueError(f"unknown family variant {variant!r}")
    return makers[variant](values, domain)


def _emit(obj: dict, out_path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _window_grid(family: FamilySpec, args) -> np.ndarray:
    lo, hi = family.domain.window()
    return np.linspace(lo, hi, args.grid)


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _coeff_poly(args, family: FamilySpec) -> SparsePoly:
    return SparsePoly(_floats(args.coeffs), family)


def _approx_target(args, family: FamilySpec) -> SparsePoly:
    return _coeff_poly(args, parse_family(args.target_fn, family.domain))


def _build_poly(args, family: FamilySpec) -> dict:
    nodes = NodeSet.of(*[tuple(map(float, n.split(":"))) for n in args.nodes.split(",")])
    poly = poly_from_zeros(family, nodes, sign=args.sign)
    out = {"poly": poly.to_dict()}
    if args.count:
        out["zeros"] = count_zeros(poly, tol=args.tol).to_dict()
    return out


def _moments_check(args, family: FamilySpec | None):
    """Sparse feasibility over the family; the Hankel tests without one."""
    s = _floats(args.moments)
    if family is None:
        return hankel_check(s, args.variant, tol=args.tol)
    return sparse_feasibility(MomentFunctional(s, family), grid=args.grid, tol=args.tol,
                              seed=args.seed)


def _optimize_ratio(args, family: FamilySpec) -> dict:
    L, S = _floats(args.numerator), _floats(args.denominator)
    value, poly, top5 = optimize_ratio(family, MomentFunctional(L, family),
                                       MomentFunctional(S, family), sense=args.sense,
                                       seed=args.seed)
    top = [[v, tag, list(theta)] for v, tag, theta in top5]
    return {"value": value, "poly": poly.to_dict(), "top5": top}


def _approx_columns(args, family: FamilySpec, res, xs) -> dict:
    fv, pv = _approx_target(args, family)(xs), res.poly(xs)
    return {"f": fv, "poly": pv, "error": fv - pv}


DECOMPOSE_MODES = {
    "pos_ab": decompose_pos_ab,
    "nonneg_ab": decompose_nonneg_ab,
    "halfline_pos": lambda f: decompose_halfline(f, "positive"),
    "halfline_nonneg": lambda f: decompose_halfline(f, "nonneg"),
    "realline_pos": lambda f: decompose_realline(f, "positive"),
    "realline_nonneg": lambda f: decompose_realline(f, "nonneg"),
}

STATUS_EXIT = {"feasible": EXIT_OK, "infeasible": EXIT_REFUTED, "undecided": EXIT_UNDECIDED}


def _moments_check_exit(out: dict) -> int:
    if "status" in out:  # sparse feasibility
        return STATUS_EXIT[out["status"]]
    return EXIT_OK if out["all_psd"] else EXIT_REFUTED


@dataclass(frozen=True)
class Command:
    """The facts of one subcommand; ``_run_command`` does what they share."""

    help: str
    #: (flag, add_argument keywords) after the common flags
    flags: tuple
    #: the library call, (args, family) -> result
    call: Callable
    #: the JSON of a result, (args, family, result) -> dict; a dict is its own JSON
    to_json: Callable = lambda args, family, res: res if isinstance(res, dict) else res.to_dict()
    #: the exit code of the JSON output
    exit: Callable = lambda out: EXIT_OK
    #: library errors written as {"task", "error"} JSON, with their exit codes
    errors: dict = field(default_factory=dict)
    #: with --plot, (args, family, result, xs) -> {CSV header: values at the window grid xs}
    plot: Callable | None = None
    #: --family is required (the Hankel moments-check works without one)
    needs_family: bool = True


# keyed by task name; the subcommand is the name with dashes, as `tsys run` maps it
COMMANDS = {
    "certify": Command(
        "certify or refute T/ET/ECT structure",
        (("--target", dict(default="T", choices=["T", "ET", "ECT", "t", "et", "ect"])),),
        lambda args, family: certify(family, args.target.upper(), grid=args.grid, seed=args.seed),
        exit=lambda out: EXIT_OK if out["level"] != "none" else EXIT_REFUTED,
    ),
    "build_poly": Command(
        "polynomial with prescribed zeros",
        (("--nodes", dict(required=True, help="x:m pairs, e.g. '1:2,2:4'")),
         ("--sign", dict(default="auto_nonneg", choices=["auto_nonneg", "raw"])),
         ("--count", dict(action="store_true", help="also run count_zeros"))),
        _build_poly,
    ),
    "decompose": Command(
        "Karlin decomposition f = f_* + f^*",
        (("--coeffs", dict(required=True, help="comma-separated coefficients")),
         ("--mode", dict(default="pos_ab", choices=list(DECOMPOSE_MODES)))),
        lambda args, family: DECOMPOSE_MODES[args.mode](_coeff_poly(args, family)),
        exit=lambda out: EXIT_OK if out["converged"] else EXIT_UNDECIDED,
        errors={NoConvergence: EXIT_UNDECIDED},
        plot=lambda args, family, dec, xs: {
            "f": _coeff_poly(args, family)(xs), "f_star": dec.f_lower(xs),
            "f_upper_star": dec.f_upper(xs)},
    ),
    "snake": Command(
        "snake-theorem band polynomial",
        (("--g1", dict(required=True)),
         ("--g2", dict(required=True)),
         ("--which", dict(default="f_star", choices=["f_star", "f_upper_star"]))),
        lambda args, family: snake(family, float(args.g1), float(args.g2), which=args.which),
        errors={NoSeparator: EXIT_REFUTED},
        plot=lambda args, family, sol, xs: {
            "g1": np.full_like(xs, float(args.g1)), "g2": np.full_like(xs, float(args.g2)),
            "poly": sol.poly(xs)},
    ),
    "approx": Command(
        "best sup-norm approximation",
        (("--target-fn", dict(required=True, help="family of the target, e.g. monomial:0,1,2")),
         ("--coeffs", dict(required=True, help="coefficients of the target"))),
        lambda args, family: best_approx(family, _approx_target(args, family), grid=args.grid),
        exit=lambda out: EXIT_UNDECIDED if out["stalled"] else EXIT_OK,
        plot=_approx_columns,
    ),
    "moments_check": Command(
        "Hankel tests or sparse feasibility",
        (("--moments", dict(required=True)),
         ("--variant", dict(default="hamburger",
                            choices=["hamburger", "stieltjes", "hausdorff", "svenco"]))),
        _moments_check,
        exit=_moments_check_exit,
        needs_family=False,
    ),
    "moments_recover": Command(
        "atomic representing measure",
        (("--moments", dict(required=True)),),
        lambda args, family: recover_atoms(MomentFunctional(_floats(args.moments), family),
                                           grid=args.grid, tol=args.tol),
        errors={NotFeasible: EXIT_REFUTED},
    ),
    "smooth": Command(
        "Gaussian smoothing of a family",
        (("--sigma", dict(type=float, default=0.05)),
         ("--panels", dict(type=int, default=64)),
         ("--truncation", dict(type=float, default=8.0))),
        lambda args, family: gaussian_smooth(
            family, KernelSpec("gaussian", args.sigma, None, args.panels, args.truncation),
            return_report=True),
        # the result is (smoothed family, report); mesh_points is the --plot grid's size
        to_json=lambda args, family, res: {
            "sigma": args.sigma, "panels": args.panels, "truncation": args.truncation,
            "mesh_points": len(_window_grid(family, args)),
            "quadrature_error_estimate": res[1]["quadrature_error_estimate"],
            "truncation_error_bound": res[1]["truncation_error_bound"]},
        plot=lambda args, family, res, xs: {
            f"f{i}": col for i, col in enumerate(res[0].eval_grid(xs).T)},
    ),
    "optimize_ratio": Command(
        "optimize L(p)/S(p) over the cone",
        (("--numerator", dict(required=True, help="moments of L")),
         ("--denominator", dict(required=True, help="moments of S")),
         ("--sense", dict(default="max", choices=["min", "max"]))),
        _optimize_ratio,
    ),
}


def _run_command(args) -> int:
    """Parse the family, call the library, write the JSON and the --plot CSV;
    return the exit code."""
    spec = COMMANDS[args.task]
    family = None
    if args.family or spec.needs_family:
        family = parse_family(args.family, parse_domain(args.domain))
    try:
        result = spec.call(args, family)
    except tuple(spec.errors) as exc:
        _emit({"task": args.task, "error": str(exc)}, args.out)
        return next(code for cls, code in spec.errors.items() if isinstance(exc, cls))
    out = spec.to_json(args, family, result)
    out["task"] = args.task
    if family is not None:
        out["seed"] = args.seed
    _emit(out, args.out)
    if spec.plot and args.plot:
        xs = _window_grid(family, args)
        columns = spec.plot(args, family, result, xs)
        with open(args.plot, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", *columns])
            for row in zip(xs, *columns.values()):
                writer.writerow([repr(float(v)) for v in row])
    return spec.exit(out)


def cmd_run(args) -> int:
    try:
        with open(args.problem) as fh:
            problem = json.load(fh)
        if not (isinstance(problem, dict) and isinstance(problem.get("payload", {}), dict)
                and isinstance(problem.get("task") or "", str)):
            raise TypeError("want an object with a string task and an object payload")
    except (OSError, TypeError, json.JSONDecodeError) as exc:
        print(f"cannot read problem file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if problem.get("schema_version") != SCHEMA_VERSION:
        print(
            f"unsupported schema_version {problem.get('schema_version')!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    task = problem.get("task")
    payload = problem.get("payload", {})
    argv = [task.replace("_", "-")] if task else []
    for key, value in payload.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        # one token: a value such as "-1,1" must not read as a flag
        argv.append(f"--{key.replace('_', '-')}={value}")
    if args.out:
        argv += ["--out", args.out]
    if args.plot:
        argv += ["--plot", args.plot]
    return main(argv)


def _add_common(p, needs_family: bool):
    p.add_argument("--family", required=needs_family, help="e.g. power:0,2,3")
    p.add_argument("--domain", required=False, default="0,1", help="'a,b', 'a,inf', or 'R'")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.add_argument("--plot", default=None, help="write plot CSV here")
    p.add_argument("--grid", type=int, default=2001)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tsys", description="Tchebycheff-system toolkit command line"
    )
    sub = ap.add_subparsers(dest="command")
    for task, spec in COMMANDS.items():
        p = sub.add_parser(task.replace("_", "-"), help=spec.help)
        _add_common(p, spec.needs_family)
        for flag, options in spec.flags:
            p.add_argument(flag, **options)
        p.set_defaults(func=_run_command, task=task)

    p = sub.add_parser("run", help="execute a problem file")
    p.add_argument("problem")
    p.add_argument("--out", default=None)
    p.add_argument("--plot", default=None)
    p.set_defaults(func=cmd_run)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if not getattr(args, "command", None):
        ap.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, TSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
