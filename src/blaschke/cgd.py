"""Levenberg-Marquardt refinement of the pole tuple on the reduction remainder.

The squared error A = ||f||^2 - E = mean|f_n|^2 is a separable least-squares
residual, and the final remainder f_n of the reduction is its variable-
projection residual (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973; RKFIT,
Berljafa & Guettel, SIAM J. Sci. Comput. 39, 2017).  Each iteration takes a
Levenberg-Marquardt step (Nocedal & Wright, ch. 10) on the real vector
[Re a; Im a] in R^2n: with J the closed-form Jacobian of f_n
(`reduction.remainder_jacobian`) and the Gauss-Newton matrix
G = Re(conj(J) J^T)/N, the step solves (G + mu S) d = [Re g; Im g], where
g = gradE (`energy_gradient`) and [Re g; Im g] = -Re(conj(J) f_n)/N.  S is
diagonal and gives each pole one entry on Re and Im, the mean of its two
entries of diag(G): Marquardt's plain diag(G) is not invariant under
turning the poles, and this is, so the step turns with a rotated or
conjugated signal.  The step is
capped so that no pole moves farther than TRUST_RADIUS.

A trial is accepted when A(c) <= A(a) - pred/4, with pred the decrease of
A the Gauss-Newton model predicts for the capped step.  Each call starts at
mu = INITIAL_DAMPING; a rejected trial raises mu by DAMPING_RAISE and is
solved again, an accepted step lowers it by DAMPING_LOWER down to
MIN_DAMPING.  A trial with a pole outside the disk |a| <= 1 - BOUNDARY_MARGIN
is rejected without evaluating A there: the one rule that keeps the
iterates inside.  After MAX_BACKTRACKS rejected trials in a row the
refinement stops with LINE_SEARCH_STALL, the damping cap.  Poles may
merge, or split when they start stacked: a PoleTuple admits repeated
poles.  The refinement stops once |g|^2 <= GRAD_TOL.  The gradient and the
Jacobian at an accepted point are read off the chain its energy ran.

The test is made on A rather than on E: A is the norm of the final
remainder, which stays well conditioned near an exact recovery where
increments of E fall below the round-off resolution of ||f||^2.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hardy import PoleTuple, norm_sq
from .reduction import Objective, energy_gradient, error_energy, remainder_jacobian

__all__ = ["CgdConfig", "CgdReport", "CgdStatus", "cgd_refine"]

# iterates must stay strictly inside the disk; the energy is singular on
# the boundary
BOUNDARY_MARGIN = 1e-9

# trials, each with a damping DAMPING_RAISE times the last, before a stall
MAX_BACKTRACKS = 60

# the damping of each call's first trial, relative to the Gauss-Newton diagonal
INITIAL_DAMPING = 1e-3

# the factor a rejected trial raises the damping by
DAMPING_RAISE = 10.0

# the factor an accepted step lowers the damping by, down to MIN_DAMPING; faster
# than the raise, so the steps near a recovery become Gauss-Newton steps
DAMPING_LOWER = 100.0
MIN_DAMPING = 1e-15

# the farthest any one pole moves in a step
TRUST_RADIUS = 0.05

# |grad E|^2 at which the refinement has converged; absolute, not relative to ||f||^2
GRAD_TOL = 1e-18


class CgdStatus(Enum):
    CONVERGED = "converged"
    ITERATION_CAP = "iteration-cap"
    LINE_SEARCH_STALL = "line-search-stall"


@dataclass(frozen=True)
class CgdConfig:
    max_iters: int = 500

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


@dataclass(frozen=True)
class CgdReport:
    tuple: PoleTuple
    iterations: int
    final_gradient_norm_sq: float
    energy_trace: list
    status: CgdStatus


def _candidate(poles):
    """The PoleTuple of a trial point, or None if a pole has |a| > 1 - BOUNDARY_MARGIN.

    The refinement's one boundary rule: a trial outside is rejected without
    evaluating the energy there.  Inside the margin `PoleTuple` cannot fail:
    it admits repeated poles.
    """
    if not (np.abs(poles) <= 1.0 - BOUNDARY_MARGIN).all():
        return None
    return PoleTuple(poles)


def cgd_refine(f, start, cfg=CgdConfig()):
    """Refine the PoleTuple `start` by Levenberg-Marquardt on the remainder of f.

    f is a `Signal`; the call builds its own `Objective` of f and drops it
    on return.
    """
    tup, state = start, Objective(f)
    n = tup.degree
    err_curr = error_energy(state, tup)
    g = energy_gradient(state, tup)
    total = norm_sq(f)
    # recording E as total - A keeps the trace exactly monotone
    trace = [total - err_curr]
    damping = INITIAL_DAMPING
    for iterations in range(cfg.max_iters + 1):
        gnorm_sq = float(np.sum(np.abs(g) ** 2))
        if gnorm_sq <= GRAD_TOL:
            status = CgdStatus.CONVERGED
            break
        if iterations == cfg.max_iters:
            status = CgdStatus.ITERATION_CAP
            break
        jac = remainder_jacobian(state, tup)
        # J'J of the real residual [Re f_n; Im f_n] on [Re a; Im a]; J'f_n = -[Re g; Im g]
        gram = np.real(np.conj(jac) @ jac.T) / jac.shape[1]
        ascent = np.concatenate([g.real, g.imag])
        diag = np.diagonal(gram)
        # one scale per pole, the same on Re and Im, keeps the step rotation-equivariant
        scale = np.tile(0.5 * (diag[:n] + diag[n:]), 2)
        for _ in range(MAX_BACKTRACKS):
            step = np.linalg.solve(gram + damping * np.diag(scale), ascent)
            move = step[:n] + 1j * step[n:]
            cap = min(TRUST_RADIUS / np.max(np.abs(move)), 1.0)
            step *= cap
            # the decrease of A the Gauss-Newton model predicts; >= 0 up to round-off
            predicted = max(2.0 * ascent @ step - step @ gram @ step, 0.0)
            cand = _candidate(tup.poles + cap * move)
            if cand is not None:
                err_cand = error_energy(state, cand)
                if err_cand <= err_curr - 0.25 * predicted:
                    break
            damping *= DAMPING_RAISE
        else:
            status = CgdStatus.LINE_SEARCH_STALL
            break
        damping = max(damping / DAMPING_LOWER, MIN_DAMPING)
        tup, err_curr = cand, err_cand
        g = energy_gradient(state, tup)
        trace.append(total - err_curr)
    return CgdReport(tup, iterations, gnorm_sq, trace, status)
