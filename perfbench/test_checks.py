"""Self-test of the benchmark's output checks, plus a smoke run of every workload.

    python3 -m pytest perfbench/test_checks.py -q

Known-bad outputs must be counted as failed and known-good ones must pass.
Set ``PERFBENCH_SLOW=1`` to also replay acceptance criterion 10's instance 31,
whose dual certificate the library returns unsound (an order-4 dual search).
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tsystems as ts  # noqa: E402
from tsystems.moments import FeasibilityVerdict, MomentFunctional  # noqa: E402

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import PASS_SECONDS, WORKLOADS, random_nonneg_dense  # noqa: E402


def infeasible(poly) -> FeasibilityVerdict:
    return FeasibilityVerdict("infeasible", None, poly, 1.0)


# -- moment_dual -----------------------------------------------------------------


def dipped_certificate():
    """Instance 31's family with a dip like the one the library returned there:
    small against the global max over [0, 10] (the x^6 term), large against
    the local magnitude near the double zero."""
    fam = ts.power_family([0, 0.5, 2.5, 4.5, 6], ts.halfline(0.0))
    good = ts.poly_from_zeros(fam, ts.NodeSet.of((1.04, 2), (2.5, 2)), check_certificate=False)
    xs = np.linspace(0.0, 10.0, 20001)
    vals = checks.poly_values(good, xs)
    near = np.abs(xs - 1.04) < 0.2
    eps = 1e-7 * float(np.max(vals[near]))
    a = np.array(good.a)
    a[0] -= eps
    return good, ts.SparsePoly(tuple(a), fam), float(np.max(np.abs(vals)))


def test_local_dip_in_certificate_is_failed():
    good, bad, global_max = dipped_certificate()
    assert checks.check_certificate(-np.array(good.a), infeasible(good)) is None
    reason = checks.check_certificate(-np.array(bad.a), infeasible(bad))
    assert reason is not None and "dips" in reason
    # the dip hides under a check scaled by the global max (criterion 10's)
    dip = float(np.min(checks.poly_values(bad, np.linspace(0.0, 10.0, 20001))))
    assert dip < 0 and dip >= -1e-10 * global_max


def test_certificate_with_nonnegative_value_is_failed():
    good, _, _ = dipped_certificate()
    reason = checks.check_certificate(np.array(good.a), infeasible(good))
    assert reason is not None and "not negative" in reason


def test_undecided_verdict_is_failed():
    good, _, _ = dipped_certificate()
    verdict = FeasibilityVerdict("undecided", None, None, 1.0)
    assert checks.check_certificate(-np.array(good.a), verdict) is not None


# -- karlin ----------------------------------------------------------------------


def karlin_fixture():
    dom = ts.interval(0.2, 1.7)
    pd = random_nonneg_dense(4, dom, np.random.default_rng(3))
    fam = ts.monomial_family(list(range(len(pd))), dom)
    f = ts.SparsePoly(tuple(pd), fam)
    return f, ts.decompose_pos_ab(f), ts.lukacs_decompose(pd, dom)


def test_swapped_karlin_parts_are_failed():
    f, dec, oracle = karlin_fixture()
    assert checks.check_karlin(f, dec, oracle) is None
    swapped = dataclasses.replace(dec, f_lower=dec.f_upper, f_upper=dec.f_lower,
                                  zeros_lower=dec.zeros_upper, zeros_upper=dec.zeros_lower)
    reason = checks.check_karlin(f, swapped, oracle)
    assert reason is not None and "oracle" in reason


def test_negative_karlin_part_is_failed():
    f, dec, oracle = karlin_fixture()
    shift = np.zeros(f.family.size)
    shift[0] = 1e-3 * float(np.max(np.abs(f.a)))
    lower = ts.SparsePoly(tuple(np.array(dec.f_lower.a) - shift), f.family)
    upper = ts.SparsePoly(tuple(np.array(dec.f_upper.a) + shift), f.family)
    assert checks.check_karlin(f, dataclasses.replace(dec, f_lower=lower, f_upper=upper),
                               oracle) is not None


# -- moment_primal ---------------------------------------------------------------


def test_wrong_atom_sets_are_failed():
    fam = ts.power_family([0, 1, 2.5, 3], ts.interval(0.1, 1.2))
    atoms = [(0.3, 0.5), (0.9, 0.7)]
    s = MomentFunctional.from_measure(fam, atoms).s
    assert checks.check_atoms(fam, atoms, s, 1e-8) is None
    moved = [(0.3, 0.5), (0.9 + 1e-4, 0.7)]
    assert "residual" in checks.check_atoms(fam, moved, s, 1e-8)
    split = [(0.3, 0.5), (0.9, 0.3), (0.9 + 1e-9, 0.2), (1.0, 1e-12), (1.1, 1e-12)]
    assert "exceed" in checks.check_atoms(fam, split, s, 1e-8)
    negative = [(0.3, 0.5), (0.9, -0.7)]
    assert "positive" in checks.check_atoms(fam, negative, s, 1e-8)


# -- desk ------------------------------------------------------------------------


def test_worse_best_approximation_is_failed():
    fam = ts.monomial_family([0, 1], ts.interval(-1, 1))
    target = ts.SparsePoly((0.0, 0.0, 1.0), ts.monomial_family([0, 1, 2], ts.interval(-1, 1)))
    res = ts.best_approx(fam, target)
    assert checks.check_best_approx(fam, target, res) is None
    worse = dataclasses.replace(res, poly=ts.SparsePoly((0.5 + 1e-5, 0.0), fam))
    assert checks.check_best_approx(fam, target, worse) is not None


def test_wrong_snake_side_and_zero_multiplicity_are_failed():
    fam = ts.monomial_family([0, 1, 2, 3], ts.interval(-0.5, 1.5))
    sol = ts.snake(fam, -1.0, 1.0, which="f_star")
    assert checks.check_snake(fam, sol, "f_star") is None
    assert checks.check_snake(fam, sol, "f_upper_star") is not None
    cfg = ts.count_zeros(ts.poly_from_zeros(
        ts.monomial_family([0, 1, 2], ts.interval(0, 1)), ts.NodeSet.of((0.5, 2))))
    dom = ts.interval(0, 1)
    assert checks.check_zero_round_trip([(0.5, 2)], cfg, dom) is None
    assert checks.check_zero_round_trip([(0.5, 1)], cfg, dom) is not None
    assert checks.check_zero_round_trip([(0.6, 2)], cfg, dom) is not None


def test_wrong_certify_level_is_failed():
    fam = ts.power_family([0, 2, 3], ts.interval(0.5, 2.0))
    assert checks.check_certify(ts.certify(fam, "ECT"), "ECT") is None
    assert checks.check_certify(ts.certify(fam, "ECT"), "none") is not None


# -- smoke: every workload on a few instances --------------------------------------


@pytest.mark.parametrize("name,calls", [("karlin", 4), ("moment_dual", 1),
                                        ("moment_primal", 3), ("desk", 9)])
def test_workload_smoke(name, calls):
    """The harness runs and checks every call (the library's known defects
    may fail some of them; that is what the checks are for)."""
    workload = WORKLOADS[name]
    done = worker.run_loop(workload, workload.stream(seed=7), calls)
    assert len(done) == calls
    assert all(wall > 0 and ref > 0 for _, wall, ref in done)
    reasons, errors = worker.check_all(workload, done)
    assert errors == 0 and len(reasons) == calls


def test_run_is_whole_passes_in_seeded_order():
    workload = WORKLOADS["karlin"]
    corpus = [inst.stratum for inst in workload.corpus()]
    assert workload.calls(PASS_SECONDS) == workload.size == len(corpus)

    def first_pass(seed):
        stream = workload.stream(seed)
        return [next(stream) for _ in range(workload.size)]

    one, again, other = first_pass(1), first_pass(1), first_pass(2)
    assert sorted(i.stratum for i in one) == sorted(corpus)
    assert [i.args["coeffs"].tolist() for i in one] == [i.args["coeffs"].tolist() for i in again]
    assert [i.args["coeffs"].tolist() for i in one] != [i.args["coeffs"].tolist() for i in other]


@pytest.mark.skipif(not os.environ.get("PERFBENCH_SLOW"), reason="set PERFBENCH_SLOW=1")
def test_real_unsound_certificate_is_failed():
    """Replays criterion 10's generator to instance 31 (power family
    (0, .5, 2.5, 4.5, 6) on [0, inf)) and checks the library's certificate."""
    rng = np.random.default_rng(73)
    done = 0
    while True:
        n = int(rng.integers(2, 7))
        extra = np.sort(rng.choice(np.arange(1, 3 * n + 1), size=n, replace=False) * 0.5)
        on_halfline = done % 2 == 1
        dom = ts.halfline(0.0) if on_halfline else ts.interval(0.1, 1.2)
        fam = ts.power_family([0.0] + list(extra), dom)
        lo, hi = (0.08, 2.5) if on_halfline else (0.12, 1.18)
        k = int(rng.integers(1, min(4, n // 2) + 1))
        pos = np.sort(rng.uniform(lo, hi, k))
        if len(pos) > 1 and np.min(np.diff(pos)) < 0.08:
            continue
        wts = rng.uniform(0.2, 1.0, k)
        L = MomentFunctional.from_measure(fam, list(zip(pos, wts)))
        scale = float(np.max(np.abs(L.s)))
        pad = n - 2 * k
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
        except Exception:  # criterion 10 skips such draws the same way
            continue
        if abs(p_hat.a[0]) < 0.3:
            continue
        if done == 31:
            break
        done += 1
    assert tuple(fam.params) == (0.0, 0.5, 2.5, 4.5, 6.0)
    s = np.array(L.s)
    s[0] -= 10 * scale * 1e-8 * math.copysign(1.0, p_hat.a[0])
    verdict = ts.sparse_feasibility(MomentFunctional(tuple(s), fam), tol=1e-8)
    assert checks.check_certificate(s, verdict) is not None
