"""Newton-type drivers shared by ``karlin``, ``snake`` and ``moments``: damped
Newton on square systems, continuation, and bounded least squares."""

import math

import numpy as np


def _newton(system, z, tol, maxit, admissible, min_step=0.0, crawl=0, floor=True):
    """Damped Newton on a square system, run on towards the rounding floor.

    ``system(z)`` returns the residual R at z and a callable giving the
    Jacobian there; ``admissible(z)`` says where system may be evaluated.
    Above tol each Newton step is halved until it lowers max |R|, and Newton
    stops when no halving does before the step no longer moves z.  Past tol
    it takes full steps while they lower max |R| and ends, unhalved, at the
    first that does not, since at the floor a step is rounding noise (so the
    end point may move with tol by such a step).  It has converged if it
    stops below tol; a stall above tol is not converged.  With ``floor``
    False it stops, converged, as soon as max |R| is below tol.  It stops,
    not converged, with max |R| at or above tol after an accepted step cut
    below ``min_step``, or once max |R| has not halved over the last
    ``crawl`` > 0 accepted steps.  A z without a solution has R = inf and a
    raising Jacobian (_inadmissible), so no step lands on it and none starts
    there.  Returns (z, converged, steps, max |R|).
    """
    z = np.asarray(z, dtype=float).copy()
    R, jac = system(z)
    nR = float(np.abs(R).max())
    seen = [nR]
    for it in range(maxit):
        if not floor and nR < tol:
            return z, True, it, nR
        try:
            dz = np.linalg.solve(jac(), -R)
        except np.linalg.LinAlgError:
            return z, nR < tol, it, nR
        t, moved = 1.0, False
        for _ in range(45):
            zn = z + t * dz
            if (zn == z).all():
                break
            if admissible(zn):
                Rn, jn = system(zn)
                nRn = float(np.abs(Rn).max())
                if nRn < nR:
                    moved = True
                    break
            if nR < tol:  # below tol a full step that does not lower max |R| ends the solve
                break
            t /= 2
        if not moved:
            return z, nR < tol, it, nR
        z, R, jac, nR = zn, Rn, jn, nRn
        seen.append(nR)
        if nR >= tol and (t < min_step or 0 < crawl <= it + 1 and 2 * nR > seen[-1 - crawl]):
            return z, False, it + 1, nR
    return z, nR < tol, maxit, nR


def _homotopy(advance, z, step, growth, max_step, max_fails=math.inf, min_step=0.0):
    """(z, t): a solution z of H(z, t) = 0 followed from t = 0 towards 1.
    ``advance(t, tn, z)`` gives (z at tn, converged) from z at t; a converged
    step is taken and grows by ``growth`` up to ``max_step``, a failed one is
    halved.  Stops at t = 1, after max_fails failures or below min_step."""
    t, fails = 0.0, 0
    while t < 1.0 - 1e-12 and fails < max_fails and step >= min_step:
        tn = min(1.0, t + step)
        zn, ok = advance(t, tn, z)
        if ok:
            z, t, step = zn, tn, min(step * growth, max_step)
        else:
            step, fails = step / 2, fails + 1
    return z, t


def _bounded_lm(fun, jac, z, lower, upper, max_nfev, settled):
    """z minimizing |fun(z)|^2 in the box lower <= z <= upper.  A step solves
    min |J p + r| (J = ``jac(z)``) by the SVD of J/D, D the largest column
    norms of J so far (Moré 1978), over the variables no active bound holds,
    clipped to the box.  Gauss-Newton first, halved up to 6 times until it
    cuts the cost by 1%; once it does not, the valley is narrow and bent, and
    Levenberg-Marquardt follows it in a trust region (MINPACK's lmder), at
    first that step's length.  A trial that lowers the cost is taken.  Stops
    after ``max_nfev`` evaluations of fun, at a step that no longer moves z,
    or, once ``settled(r)`` holds at z, at the first trial that does not
    halve the cost.
    """
    z = np.clip(np.asarray(z, dtype=float), lower, upper)
    r, J, nfev, delta = fun(z), jac(z), 1, None  # Gauss-Newton while delta is None
    cost, D = float(r @ r), np.linalg.norm(J, axis=0)
    D[D == 0] = 1.0
    while nfev < max_nfev and cost > 0:
        g = J.T @ r
        free = ~((z <= lower) & (g > 0) | (z >= upper) & (g < 0))
        try:
            U, sv, Vt = np.linalg.svd(J[:, free] / D[free], full_matrices=False)
        except np.linalg.LinAlgError:
            break
        uf = U.T @ r
        rank = sv > np.finfo(float).eps * max(J.shape) * sv[:1]  # sv is empty if nothing is free
        lam, c = 0.0, uf[rank] / sv[rank]
        for _ in range(20 if delta else 0):
            n = float(np.linalg.norm(c))
            if n <= 1.1 * delta:
                break
            # Moré and Hebden's Newton iteration on 1/|D p(lam)| = 1/delta, from below
            lam += (n / delta - 1) * n**2 / float(np.sum(c**2 / (sv[rank] ** 2 + lam)))
            rank = sv > 0
            c = sv[rank] * uf[rank] / (sv[rank] ** 2 + lam)
        dz = np.zeros_like(z)
        dz[free] = -(Vt[rank].T @ c) / D[free]
        for halving in range(1 if delta else 7):
            zn = np.clip(z + dz / 2**halving, lower, upper)
            snorm = float(np.linalg.norm(D * (zn - z)))
            if snorm <= 1e-15 * float(np.linalg.norm(D * z)):
                return z
            rn = fun(zn)
            costn, nfev = float(rn @ rn), nfev + 1
            if settled(r) and not costn <= cost / 2:
                return z
            if costn <= 0.99 * cost or nfev == max_nfev:
                break
        if not delta:
            delta = None if costn <= 0.99 * cost else snorm * 2**halving
        else:
            lin = r + J @ (zn - z)
            pred = cost - float(lin @ lin)
            ratio = (cost - costn) / pred if pred > 0 else -1.0
            # halve the radius on a poor fit of the model (a tenth after a
            # hundredfold rise), make it twice the step on a good one
            if not ratio > 0.25:
                delta = (0.5 if costn < 100 * cost else 0.1) * min(delta, 10 * snorm)
            elif lam == 0.0 or ratio >= 0.75:
                delta = 2 * snorm
        if costn < cost:
            z, r, cost, J = zn, rn, costn, jac(zn)
            D = np.maximum(D, np.linalg.norm(J, axis=0))
    return z
