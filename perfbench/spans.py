"""Tracing from outside the library: wrappers around the public functions of
each layer, spans kept in memory, self time and counts computed at the end.

``Tracer.install()`` replaces each target function at every ``tsystems.*``
namespace that binds it (so calls made inside the library are caught), and
``FamilySpec.eval_grid`` on the class.  ``uninstall()`` restores the
originals.  Untraced runs never construct a Tracer.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (label, module, attribute): the module is where the original is defined
TARGETS = [
    ("colloc.node_rows", "tsystems.colloc", "node_rows"),
    ("colloc.null_vector", "tsystems.colloc", "null_vector"),
    ("colloc.det", "tsystems.colloc", "det"),
    ("colloc.certify", "tsystems.colloc", "certify"),
    ("zeros.cofactor_coefficients", "tsystems.zeros", "cofactor_coefficients"),
    ("zeros.poly_from_zeros", "tsystems.zeros", "poly_from_zeros"),
    ("zeros.count_zeros", "tsystems.zeros", "count_zeros"),
    ("karlin.decompose", "tsystems.karlin", "decompose_pos_ab"),
    ("karlin.decompose", "tsystems.karlin", "decompose_nonneg_ab"),
    ("karlin.decompose", "tsystems.karlin", "decompose_halfline"),
    ("karlin.decompose", "tsystems.karlin", "decompose_realline"),
    ("moments.sparse_feasibility", "tsystems.moments", "sparse_feasibility"),
    ("moments.recover_atoms", "tsystems.moments", "recover_atoms"),
    ("snake.best_approx", "tsystems.snake", "best_approx"),
    ("snake.snake", "tsystems.snake", "snake"),
    ("smooth.gaussian_smooth", "tsystems.smooth", "gaussian_smooth"),
    ("cli.main", "tsystems.cli", "main"),
    ("scipy.minimize", "scipy.optimize", "minimize"),
    ("scipy.linprog", "scipy.optimize", "linprog"),
    ("scipy.nnls", "scipy.optimize", "nnls"),
    ("scipy.least_squares", "scipy.optimize", "least_squares"),
]
EVAL_GRID = "family.eval_grid"
LABELS = sorted({label for label, _, _ in TARGETS} | {EVAL_GRID})


class Tracer:
    """Records (label, start, end, parent, solve) spans and per-call counters."""

    def __init__(self):
        self.label_ids = {label: i for i, label in enumerate(LABELS)}
        self.label = []
        self.start = []
        self.end = []
        self.parent = []
        self.solve = []
        self.stack = []
        self.current_solve = -1
        self.counters = {"eval_grid.points": 0, "minimize.nfev": 0,
                         "least_squares.nfev": 0, "remez_iters": 0,
                         "feasibility.decided": 0, "newton_iters": 0,
                         "karlin.solves": 0, "karlin.direct": 0}
        self._patched = []

    # -- spans -------------------------------------------------------------------

    def _wrap(self, label: str, fn, inspect=None):
        lid = self.label_ids[label]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.label.append(lid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.solve.append(tracer.current_solve)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.stack.pop()
            if inspect is not None:
                inspect(tracer, args, out)
            return out

        return wrapper

    def install(self):
        import tsystems.family as family

        inspectors = {
            "scipy.minimize": _count_nfev("minimize.nfev"),
            "scipy.least_squares": _count_nfev("least_squares.nfev"),
            "snake.best_approx": _count_remez,
            "moments.sparse_feasibility": _count_decided,
        }
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "tsystems" or name.startswith("tsystems."))]
        for label, modname, attr in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(label, original, inspectors.get(label))
            for ns in namespaces:
                if vars(ns).get(attr) is original:
                    self._patched.append((ns, attr, original))
                    setattr(ns, attr, wrapped)
        original = family.FamilySpec.eval_grid
        self._patched.append((family.FamilySpec, "eval_grid", original))
        family.FamilySpec.eval_grid = self._wrap(EVAL_GRID, original, _count_points)

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def record_decomposition(self, dec):
        """Per-solve Karlin facts read from the public result."""
        self.counters["karlin.solves"] += 1
        if dec.solver_path.startswith("newton:direct"):
            self.counters["karlin.direct"] += 1
        self.counters["newton_iters"] += max(int(dec.iterations), 0)

    # -- aggregation ---------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "labels": np.array(LABELS),
            "label": np.asarray(self.label, dtype=np.int16),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "solve": np.asarray(self.solve, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per label: call count and self time (duration minus child spans)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for i, label in enumerate(LABELS):
            mask = a["label"] == i
            out[label] = {"calls": int(mask.sum()), "self_s": float(self_time[mask].sum())}
        return out


def _count_points(tracer, args, out):
    tracer.counters["eval_grid.points"] += int(np.size(args[1]))


def _count_nfev(key):
    def inspect(tracer, args, out):
        tracer.counters[key] += int(getattr(out, "nfev", 0) or 0)
    return inspect


def _count_remez(tracer, args, out):
    tracer.counters["remez_iters"] += len(out.lower_bounds)


def _count_decided(tracer, args, out):
    tracer.counters["feasibility.decided"] += out.status != "undecided"


def layer_metrics(summary: dict, counters: dict, solves: int) -> dict:
    """The per-layer metrics, normalized per timed solve.

    Ratios whose base is zero on a workload (the layer never runs there)
    read 0.
    """
    per = 1.0 / max(solves, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    s = summary
    m = {}
    for label in ("family.eval_grid", "colloc.node_rows", "colloc.null_vector", "colloc.det",
                  "zeros.poly_from_zeros", "colloc.certify", "zeros.count_zeros"):
        m[f"{label}.calls"] = s[label]["calls"] * per
    for label in LABELS:
        m[f"{label}.self_s"] = s[label]["self_s"] * per
    m["family.eval_grid.points"] = counters["eval_grid.points"] * per
    feas_calls = s["moments.sparse_feasibility"]["calls"]
    m["moments.pfz_per_call"] = ratio(s["zeros.poly_from_zeros"]["calls"], feas_calls)
    m["moments.decided_frac"] = ratio(counters["feasibility.decided"], feas_calls)
    m["scipy.minimize.nfev"] = counters["minimize.nfev"] * per
    m["scipy.least_squares.nfev"] = counters["least_squares.nfev"] * per
    m["karlin.newton_iters"] = ratio(counters["newton_iters"], counters["karlin.solves"])
    m["karlin.direct_frac"] = ratio(counters["karlin.direct"], counters["karlin.solves"])
    m["snake.remez_iters"] = ratio(counters["remez_iters"], s["snake.best_approx"]["calls"])
    return m
