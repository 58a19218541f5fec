"""Command-line front end: problem files, subcommand dispatch, JSON/CSV output.

Exit codes: 0 success, 1 usage/parse error, 2 infeasible/refuted,
3 undecided/no-convergence.  All randomness is seeded and the seed is echoed
in the output, so identical invocations produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

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
        "monomial": lambda p, d: fam_mod.monomial_family([int(v) for v in p], d),
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


def _plot_window(args, family: FamilySpec, header: list, columns_at) -> None:
    """With --plot, write the CSV of x over the window grid and columns_at(x)."""
    if not args.plot:
        return
    xs = _window_grid(family, args)
    with open(args.plot, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", *header])
        for row in zip(xs, *columns_at(xs)):
            writer.writerow([repr(float(v)) for v in row])


def _family_from_args(args) -> FamilySpec:
    domain = parse_domain(args.domain)
    return parse_family(args.family, domain)


def cmd_certify(args) -> int:
    family = _family_from_args(args)
    cert = certify(family, args.target.upper(), grid=args.grid, seed=args.seed)
    out = cert.to_dict()
    out["task"] = "certify"
    _emit(out, args.out)
    return EXIT_OK if cert.level != "none" else EXIT_REFUTED


def cmd_build_poly(args) -> int:
    family = _family_from_args(args)
    nodes = NodeSet.of(*[tuple(map(float, n.split(":"))) for n in args.nodes.split(",")])
    poly = poly_from_zeros(family, nodes, sign=args.sign)
    cfg = count_zeros(poly, tol=args.tol) if args.count else None
    out = {"task": "build_poly", "poly": poly.to_dict(), "seed": args.seed}
    if cfg is not None:
        out["zeros"] = cfg.to_dict()
    _emit(out, args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    family = _family_from_args(args)
    f = SparsePoly(tuple(float(c) for c in args.coeffs.split(",")), family)
    mode = args.mode
    try:
        if mode == "pos_ab":
            dec = decompose_pos_ab(f)
        elif mode == "nonneg_ab":
            dec = decompose_nonneg_ab(f)
        elif mode in ("halfline_pos", "halfline_nonneg"):
            dec = decompose_halfline(f, "positive" if mode.endswith("pos") else "nonneg")
        elif mode in ("realline_pos", "realline_nonneg"):
            dec = decompose_realline(f, "positive" if mode.endswith("pos") else "nonneg")
        else:
            print(f"unknown decomposition mode {mode!r}", file=sys.stderr)
            return EXIT_USAGE
    except NoConvergence as exc:
        _emit({"task": "decompose", "error": str(exc)}, args.out)
        return EXIT_UNDECIDED
    out = dec.to_dict()
    out["task"] = "decompose"
    out["seed"] = args.seed
    _emit(out, args.out)
    _plot_window(
        args, family, ["f", "f_star", "f_upper_star"],
        lambda xs: [f(xs), dec.f_lower(xs), dec.f_upper(xs)],
    )
    return EXIT_OK if dec.converged else EXIT_UNDECIDED


def cmd_snake(args) -> int:
    family = _family_from_args(args)
    g1 = float(args.g1)
    g2 = float(args.g2)
    try:
        sol = snake(family, g1, g2, which=args.which)
    except NoSeparator as exc:
        _emit({"task": "snake", "error": str(exc)}, args.out)
        return EXIT_REFUTED
    out = sol.to_dict()
    out["task"] = "snake"
    out["seed"] = args.seed
    _emit(out, args.out)
    _plot_window(
        args, family, ["g1", "g2", "poly"],
        lambda xs: [np.full_like(xs, g1), np.full_like(xs, g2), sol.poly(xs)],
    )
    return EXIT_OK


def cmd_approx(args) -> int:
    family = _family_from_args(args)
    target_domain = family.domain
    tf = parse_family(args.target_fn, target_domain)
    f = SparsePoly(tuple(float(c) for c in args.coeffs.split(",")), tf)
    res = best_approx(family, f, grid=args.grid)
    out = res.to_dict()
    out["task"] = "approx"
    out["seed"] = args.seed
    _emit(out, args.out)

    def columns_at(xs):
        fv, pv = f(xs), res.poly(xs)
        return [fv, pv, fv - pv]

    _plot_window(args, family, ["f", "poly", "error"], columns_at)
    return EXIT_OK if not res.stalled else EXIT_UNDECIDED


def cmd_moments_check(args) -> int:
    if args.family:
        family = _family_from_args(args)
        s = tuple(float(v) for v in args.moments.split(","))
        L = MomentFunctional(s, family)
        verdict = sparse_feasibility(L, grid=args.grid, tol=args.tol, seed=args.seed)
        out = verdict.to_dict()
        out["task"] = "moments_check"
        out["seed"] = args.seed
        _emit(out, args.out)
        return {
            "feasible": EXIT_OK,
            "infeasible": EXIT_REFUTED,
            "undecided": EXIT_UNDECIDED,
        }[verdict.status]
    s = [float(v) for v in args.moments.split(",")]
    out = hankel_check(s, args.variant, tol=args.tol)
    out["task"] = "moments_check"
    _emit(out, args.out)
    return EXIT_OK if out["all_psd"] else EXIT_REFUTED


def cmd_moments_recover(args) -> int:
    family = _family_from_args(args)
    s = tuple(float(v) for v in args.moments.split(","))
    L = MomentFunctional(s, family)
    try:
        measure = recover_atoms(L, grid=args.grid, tol=args.tol)
    except NotFeasible as exc:
        _emit({"task": "moments_recover", "error": str(exc)}, args.out)
        return EXIT_REFUTED
    out = measure.to_dict()
    out["task"] = "moments_recover"
    out["seed"] = args.seed
    _emit(out, args.out)
    return EXIT_OK


def cmd_smooth(args) -> int:
    family = _family_from_args(args)
    kernel = KernelSpec("gaussian", args.sigma, None, args.panels, args.truncation)
    smoothed = gaussian_smooth(family, kernel)
    out = {
        "task": "smooth",
        "sigma": args.sigma,
        "panels": args.panels,
        "truncation": args.truncation,
        "mesh_points": len(_window_grid(family, args)),
        "seed": args.seed,
    }
    _emit(out, args.out)
    header = [f"f{i}" for i in range(family.size)]
    _plot_window(args, family, header, lambda xs: smoothed.eval_grid(xs).T)
    return EXIT_OK


def cmd_optimize_ratio(args) -> int:
    family = _family_from_args(args)
    L = tuple(float(v) for v in args.numerator.split(","))
    S = tuple(float(v) for v in args.denominator.split(","))
    value, poly, top5 = optimize_ratio(
        family,
        MomentFunctional(L, family),
        MomentFunctional(S, family),
        sense=args.sense,
        seed=args.seed,
    )
    out = {
        "task": "optimize_ratio",
        "value": value,
        "poly": poly.to_dict(),
        "top5": [[v, tag, list(theta)] for v, tag, theta in top5],
        "seed": args.seed,
    }
    _emit(out, args.out)
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        with open(args.problem) as fh:
            problem = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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


def _add_common(p):
    p.add_argument("--family", required=False, help="e.g. power:0,2,3")
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

    p = sub.add_parser("certify", help="certify or refute T/ET/ECT structure")
    _add_common(p)
    p.add_argument("--target", default="T", choices=["T", "ET", "ECT", "t", "et", "ect"])
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("build-poly", help="polynomial with prescribed zeros")
    _add_common(p)
    p.add_argument("--nodes", required=True, help="x:m pairs, e.g. '1:2,2:4'")
    p.add_argument("--sign", default="auto_nonneg", choices=["auto_nonneg", "raw"])
    p.add_argument("--count", action="store_true", help="also run count_zeros")
    p.set_defaults(func=cmd_build_poly)

    p = sub.add_parser("decompose", help="Karlin decomposition f = f_* + f^*")
    _add_common(p)
    p.add_argument("--coeffs", required=True, help="comma-separated coefficients")
    p.add_argument(
        "--mode",
        default="pos_ab",
        choices=[
            "pos_ab",
            "nonneg_ab",
            "halfline_pos",
            "halfline_nonneg",
            "realline_pos",
            "realline_nonneg",
        ],
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("snake", help="snake-theorem band polynomial")
    _add_common(p)
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--which", default="f_star", choices=["f_star", "f_upper_star"])
    p.set_defaults(func=cmd_snake)

    p = sub.add_parser("approx", help="best sup-norm approximation")
    _add_common(p)
    p.add_argument("--target-fn", required=True, help="family of the target, e.g. monomial:0,1,2")
    p.add_argument("--coeffs", required=True, help="coefficients of the target")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("moments-check", help="Hankel tests or sparse feasibility")
    _add_common(p)
    p.add_argument("--moments", required=True)
    p.add_argument(
        "--variant", default="hamburger", choices=["hamburger", "stieltjes", "hausdorff", "svenco"]
    )
    p.set_defaults(func=cmd_moments_check)

    p = sub.add_parser("moments-recover", help="atomic representing measure")
    _add_common(p)
    p.add_argument("--moments", required=True)
    p.set_defaults(func=cmd_moments_recover)

    p = sub.add_parser("smooth", help="Gaussian smoothing of a family")
    _add_common(p)
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--panels", type=int, default=64)
    p.add_argument("--truncation", type=float, default=8.0)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("optimize-ratio", help="optimize L(p)/S(p) over the cone")
    _add_common(p)
    p.add_argument("--numerator", required=True, help="moments of L")
    p.add_argument("--denominator", required=True, help="moments of S")
    p.add_argument("--sense", default="max", choices=["min", "max"])
    p.set_defaults(func=cmd_optimize_ratio)

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
