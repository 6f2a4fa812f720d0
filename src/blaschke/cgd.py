"""Quasi-Newton ascent on the energy with backtracking line search.

Each outer iteration steps a <- a + s * p.  The direction is p = H g on the
real vector [Re g; Im g] in R^2n, with g = gradE and H a BFGS estimate of
the inverse Hessian of the squared error A (Nocedal & Wright, ch. 6).
H starts at the identity, so the first step is the paper's steepest-ascent
step p = gradE.  After each accepted step the pair s_k = s p,
y_k = g_k - g_(k+1) updates H.  The update is skipped when
s_k . y_k <= 0.  H is reset to the identity when p is not an ascent
direction, Re<g, p> <= 0.  The first update from the identity, at the
start or after a reset, first scales it to (s_k . y_k / y_k . y_k) I
(N&W eq. 6.20).

The trial step s is the largest step keeping the tuple in the closed
polydisk, capped by the per-coordinate trust region neighbor_radius/max|p|
and by 1.  Backtracking shrinks s by beta while the sufficient-increase
test E(a + s*p) >= E(a) + (s/2)*Re<g, p> fails, or while the step would
leave the disk or merge two poles.  The gradient at the accepted point is
computed once and serves both the update and the next direction.

The sufficient-increase test is evaluated on the squared error
A = ||f||^2 - E rather than on E itself: A telescopes to the norm of the
final reduction remainder, which stays well conditioned near an exact
recovery where increments of E fall below the round-off resolution of
||f||^2.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hardy import PoleTuple, norm_sq, separated
from .reduction import energy_gradient, error_energy

__all__ = ["CgdConfig", "CgdReport", "CgdStatus", "cgd_refine"]

# iterates must stay strictly inside the disk; the energy is singular on
# the boundary
BOUNDARY_MARGIN = 1e-9


class CgdStatus(Enum):
    CONVERGED = "converged"
    ITERATION_CAP = "iteration-cap"
    LINE_SEARCH_STALL = "line-search-stall"


@dataclass(frozen=True)
class CgdConfig:
    beta: float = 0.5
    neighbor_radius: float = 0.05
    tol: float = 1e-18
    max_iters: int = 500
    max_backtracks: int = 60

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.neighbor_radius <= 0.0:
            raise ValueError("neighbor_radius must be positive")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


@dataclass(frozen=True)
class CgdReport:
    tuple: PoleTuple
    iterations: int
    final_gradient_norm_sq: float
    energy_trace: list
    status: CgdStatus


def _max_inward_step(poles, direction):
    """Largest s with ||poles + s*direction||_inf = 1 (inf if never reached).

    Per pole, |a + s g| = 1 is gg s^2 + 2 Re(conj(a) g) s + |a|^2 - 1 = 0
    with gg = |g|^2; the step is its positive root, over the poles that move.
    """
    gg = np.abs(direction) ** 2
    b = np.real(np.conj(poles) * direction)
    disc = b * b + gg * (1.0 - np.abs(poles) ** 2)
    roots = np.full(gg.shape, np.inf)
    np.divide(-b + np.sqrt(disc), gg, out=roots, where=gg != 0.0)
    return float(np.min(roots))


def _feasible(poles):
    return np.all(np.abs(poles) <= 1.0 - BOUNDARY_MARGIN) and separated(poles)


def _real(z):
    """Complex vector in C^n as [Re z; Im z] in R^2n."""
    return np.concatenate([z.real, z.imag])


def cgd_refine(f, start, cfg=CgdConfig()):
    """Refine the PoleTuple `start` by quasi-Newton ascent on the energy."""
    tup = start
    n = tup.degree
    err_curr = error_energy(f, tup)
    g = energy_gradient(f, tup)
    total = norm_sq(f)
    # recording E as total - A keeps the trace exactly monotone
    trace = [total - err_curr]
    # inverse-Hessian estimate on [Re; Im]; None stands for H = I
    h = None
    for iterations in range(cfg.max_iters + 1):
        gnorm_sq = float(np.sum(np.abs(g) ** 2))
        if gnorm_sq <= cfg.tol:
            status = CgdStatus.CONVERGED
            break
        if iterations == cfg.max_iters:
            status = CgdStatus.ITERATION_CAP
            break
        if h is not None:
            hg = h @ _real(g)
            p = hg[:n] + 1j * hg[n:]
            slope = float(np.real(np.vdot(g, p)))
            if slope <= 0.0:
                h = None
        if h is None:
            p, slope = g, gnorm_sq
        s1 = _max_inward_step(tup.poles, p)
        s2 = cfg.neighbor_radius / np.max(np.abs(p))
        s = min(s1, s2, 1.0)
        for _ in range(cfg.max_backtracks):
            poles = tup.poles + s * p
            if _feasible(poles):
                cand = PoleTuple(poles)
                err_cand = error_energy(f, cand)
                # E(c) >= E(a) + (s/2) Re<g, p>, written in terms of A
                if err_cand <= err_curr - 0.5 * s * slope:
                    break
            s *= cfg.beta
        else:
            status = CgdStatus.LINE_SEARCH_STALL
            break
        g_next = energy_gradient(f, cand)
        # g is the ascent direction, so the curvature pair of A is (s p, g - g_next)
        sk, yk = _real(s * p), _real(g - g_next)
        sy = sk @ yk
        if sy > 0.0:
            if h is None:
                h = (sy / (yk @ yk)) * np.eye(2 * n)
            # N&W (6.17): H <- (I - rho s y') H (I - rho y s') + rho s s'
            hy = h @ yk
            h += (np.outer(sk, sk) * (sy + yk @ hy) / sy
                  - np.outer(sk, hy) - np.outer(hy, sk)) / sy
        tup, err_curr, g = cand, err_cand, g_next
        trace.append(total - err_curr)
    return CgdReport(tup, iterations, gnorm_sq, trace, status)
