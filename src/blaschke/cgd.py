"""Complex gradient ascent on the energy with backtracking line search.

Each outer iteration steps a <- a + s * gradE, where the trial step s is
the largest step keeping the tuple in the closed polydisk, capped by the
per-coordinate trust region and by 1.  Backtracking shrinks s by beta while
the sufficient-increase test E(a + s*gradE) >= E(a) + (s/2)*||gradE||^2
fails, or while the step would leave the disk or merge two poles.

The sufficient-increase test is evaluated on the squared error
A = ||f||^2 - E rather than on E itself: A telescopes to the norm of the
final reduction remainder, which stays well conditioned near an exact
recovery where increments of E fall below the round-off resolution of
||f||^2.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hardy import PoleTuple, norm_sq
from .reduction import energy_gradient, error_energy, is_degenerate

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
    """Largest s with ||poles + s*direction||_inf = 1 (inf if never reached)."""
    s1 = np.inf
    for a, g in zip(poles, direction):
        gg = abs(g) ** 2
        if gg == 0.0:
            continue
        # |a + s g| = 1  =>  gg s^2 + 2 Re(conj(a) g) s + |a|^2 - 1 = 0
        b = np.real(np.conj(a) * g)
        disc = b * b + gg * (1.0 - abs(a) ** 2)
        s1 = min(s1, (-b + np.sqrt(disc)) / gg)
    return s1


def _feasible(poles):
    return np.all(np.abs(poles) <= 1.0 - BOUNDARY_MARGIN) and not is_degenerate(poles)


def cgd_refine(f, start, cfg=CgdConfig()):
    """Refine a pole tuple by gradient ascent on the energy."""
    poles = start.poles.copy()
    grad_info = energy_gradient(f, PoleTuple(poles))
    err_curr = error_energy(f, PoleTuple(poles))
    total = norm_sq(f)
    # recording E as total - A keeps the trace exactly monotone
    trace = [total - err_curr]
    for iterations in range(cfg.max_iters + 1):
        g = grad_info.ascent_direction
        gnorm_sq = float(np.sum(np.abs(g) ** 2))
        if gnorm_sq <= cfg.tol:
            status = CgdStatus.CONVERGED
            break
        if iterations == cfg.max_iters:
            status = CgdStatus.ITERATION_CAP
            break
        g_inf = np.max(np.abs(g))
        s1 = _max_inward_step(poles, g)
        s2 = cfg.neighbor_radius / g_inf
        s = min(s1, s2, 1.0)
        for _ in range(cfg.max_backtracks):
            cand = poles + s * g
            if _feasible(cand):
                err_cand = error_energy(f, PoleTuple(cand))
                # E(c) >= E(a) + (s/2)||g||^2, written in terms of A
                if err_cand <= err_curr - 0.5 * s * gnorm_sq:
                    break
            s *= cfg.beta
        else:
            status = CgdStatus.LINE_SEARCH_STALL
            break
        poles = cand
        err_curr = err_cand
        grad_info = energy_gradient(f, PoleTuple(poles))
        trace.append(total - err_curr)
    return CgdReport(PoleTuple(poles), iterations, gnorm_sq, trace, status)
