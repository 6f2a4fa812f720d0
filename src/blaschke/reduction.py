"""Reduced remainders, the energy function, and its complex gradient.

Each reduction step extracts the e_a component from the current remainder
and divides out the Moebius factor (z - a)/(1 - conj(a) z); on the circle
this factor is unimodular, so the discrete norm telescopes exactly.  The
energy of a pole tuple is E(a) = sum_j (1-|a_j|^2) |f_j(a_j)|^2, and its
Wirtinger derivative with respect to each pole needs only the remainder and
remainder derivative of the reduction branch that visits that pole last.

Every remainder value f_j(a) is one O(N) Parseval mean (`series_value`), with
no FFT, so a reduction step costs O(N); energy, error and gradient all run
through the one chain loop `reduce_chain`.
"""

from dataclasses import dataclass

import numpy as np

from .hardy import (
    Signal,
    Spectrum,
    circle_points,
    inverse_spectrum,
    norm_sq,
    spectrum,
    szego_kernel,
)

__all__ = [
    "ReductionTrail",
    "EnergyGradient",
    "spectral_derivative",
    "series_value",
    "reduce_step",
    "derivative_reduce_step",
    "reduce_chain",
    "energy",
    "error_energy",
    "energy_gradient",
]

# minimum pairwise pole separation before a tuple counts as degenerate
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class ReductionTrail:
    """Remainders f_j and derivatives f'_j along one permutation branch.

    remainders[0] is the input signal; entry j is the remainder after the
    first j poles of `order` have been extracted.
    """

    remainders: list
    remainder_derivs: list
    order: np.ndarray


@dataclass(frozen=True)
class EnergyGradient:
    """Energy value E(a) and the Wirtinger derivatives d(-E)/dz_l."""

    value: float
    d_minus_e: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.array(self.d_minus_e, dtype=complex))
        object.__setattr__(self, "d_minus_e", d)
        if not np.all(np.isfinite(d)):
            raise ArithmeticError("gradient is not finite")
        d.setflags(write=False)

    @property
    def ascent_direction(self):
        """grad E per the Hermitian-transpose convention: -conj(d(-E)/dz)."""
        return -np.conj(self.d_minus_e)


def spectral_derivative(f):
    """Samples of f' on the circle: coefficient k of f' is (k+1) * f_hat(k+1)."""
    c = spectrum(f).coeffs
    dc = np.zeros_like(c)
    k = np.arange(1, c.size)
    dc[:-1] = k * c[k]
    return inverse_spectrum(Spectrum(dc))


def series_value(f, a):
    """Truncated series value f(a) = sum_k f_hat(k) a^k at a pole |a| < 1.

    By Parseval <f, e_a> = sqrt(1-|a|^2) * mean(f * z/(z - a)) over the circle
    points z, and the sampled kernel's aliased coefficients give <f, e_a> =
    sqrt(1-|a|^2) * f(a) / (1 - a^N); so f(a) = mean(f * z/(z-a)) * (1 - a^N).
    """
    a = complex(a)
    if abs(a) >= 1.0:
        raise ValueError(f"pole must satisfy |a| < 1, got |a| = {abs(a)}")
    z = circle_points(f.n_samples)
    return complex(np.mean(f.samples * z / (z - a))) * (1.0 - a**f.n_samples)


def kernel_coefficient(fj, a):
    """Discrete inner product <f, e_a> = sqrt(1-|a|^2) * f(a) / (1 - a^N)."""
    return series_value(fj, a) * np.sqrt(1.0 - abs(a) ** 2) / (1.0 - a**fj.n_samples)


def reduce_step(fj, a):
    """One reduction: extract the e_a component and divide out the Moebius factor."""
    z = circle_points(fj.n_samples)
    resid = fj.samples - kernel_coefficient(fj, a) * szego_kernel(a, z)
    return Signal(resid * (1.0 - z * np.conj(a)) / (z - a))


def derivative_reduce_step(fj, fj_prime, a):
    """Remainder-derivative recursion paired with reduce_step at pole a."""
    fj_at_a = series_value(fj, a)
    z = circle_points(fj.n_samples)
    term1 = fj_prime.samples * (1.0 - np.conj(a) * z) / (z - a)
    term2 = (fj.samples - fj_at_a) * (abs(a) ** 2 - 1.0) / (z - a) ** 2
    return Signal(term1 + term2)


def reduce_chain(f, order, with_derivative=False):
    """Run the reduction through the poles of `order`, recording every stage."""
    order = np.atleast_1d(np.asarray(order, dtype=complex))
    remainders = [f]
    derivs = [spectral_derivative(f)] if with_derivative else []
    for a in order:
        if with_derivative:
            derivs.append(derivative_reduce_step(remainders[-1], derivs[-1], a))
        remainders.append(reduce_step(remainders[-1], a))
    return ReductionTrail(remainders, derivs, order)


def _branch_order(poles, leader):
    """Cyclic visit order that reduces through every pole except `leader` last.

    Matches the 1-shift permutation powers: branch l reduces through
    a_{l+1}, ..., a_n, a_1, ..., a_{l-1} and differentiates at a_l.
    """
    n = poles.size
    return np.array([poles[(leader + 1 + j) % n] for j in range(n - 1)])


def _chain_energy(remainders, poles):
    """sum_j (1-|a_j|^2) |f_j(a_j)|^2 over remainders visited in tuple order."""
    return sum(
        (1.0 - abs(a) ** 2) * abs(series_value(fj, a)) ** 2
        for fj, a in zip(remainders, poles)
    )


def energy(f, tup):
    """Energy E(a) = sum_j (1-|a_j|^2) |f_j(a_j)|^2 via one reduction pass."""
    return _chain_energy(reduce_chain(f, tup.poles[:-1]).remainders, tup.poles)


def error_energy(f, tup):
    """Squared approximation error A = ||f||^2 - E(a) as a remainder norm.

    The Moebius factor is unimodular on the circle, so the discrete norm of
    the final remainder equals the unextracted energy exactly.  Near an
    exact recovery this is far better conditioned than ||f||^2 - energy():
    A is computed from the small remainder itself instead of as the
    difference of two order-one quantities.
    """
    return norm_sq(reduce_chain(f, tup.poles).remainders[-1])


def energy_gradient(f, tup):
    """Energy and d(-E)/dz_l for each pole, one permutation branch per pole."""
    poles = tup.poles
    n = poles.size
    if n > 1:
        diff = poles[:, None] - poles[None, :]
        np.fill_diagonal(diff, np.inf)
        if np.min(np.abs(diff)) < DEGENERATE_TOL:
            raise ValueError("pole tuple is degenerate (nearly repeated poles)")
    grad = np.empty(n, dtype=complex)
    for ell in range(n):
        trail = reduce_chain(f, _branch_order(poles, ell), with_derivative=True)
        a = poles[ell]
        g = series_value(trail.remainders[-1], a)
        gp = series_value(trail.remainder_derivs[-1], a)
        grad[ell] = np.conj(g) * (np.conj(a) * g - (1.0 - abs(a) ** 2) * gp)
    # the last branch visits a_1..a_{n-1} in tuple order, as energy() does
    return EnergyGradient(_chain_energy(trail.remainders, poles), grad)
