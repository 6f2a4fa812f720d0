"""Reduced remainders, the energy function, and its complex gradient.

Each reduction step extracts the e_a component from the current remainder
and divides out the Moebius factor (z - a)/(1 - conj(a) z); on the circle
this factor is unimodular, so the discrete norm telescopes exactly.  The
energy of a pole tuple is E(a) = sum_j (1-|a_j|^2) |f_j(a_j)|^2.  The
remainder does not depend on the order of the poles, so its Wirtinger
derivative has the closed form d(-E)/da_l = -conj(g_l) f_n(a_l), with f_n
the final remainder of one chain and g_l = mean(f conj(B) z/(1 - conj(a_l) z))
over the circle, B being the tuple's Blaschke product: one reduction pass per
gradient, and no remainder is differentiated.

The kernel works on raw sample arrays; only `energy`, `error_energy` and
`energy_gradient` take a `Signal` and a `PoleTuple`.  `reduce_chain` takes
each stage's value f_j(a_j) once, as one O(N) Parseval mean with no FFT
(`series_value`), and the step and the energy reuse it.
"""

from dataclasses import dataclass

import numpy as np

from .hardy import circle_points

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


def is_degenerate(poles):
    """Whether two poles lie closer than DEGENERATE_TOL."""
    if poles.size < 2:
        return False
    diff = np.abs(poles[:, None] - poles[None, :])
    np.fill_diagonal(diff, np.inf)
    return bool(np.min(diff) < DEGENERATE_TOL)


@dataclass(frozen=True)
class ReductionTrail:
    """Remainders f_j and values f_j(a_j) along one chain.

    remainders[0] is the input; entry j is the remainder after the first j
    poles of the visit order have been extracted, and values[j] is f_j at
    pole j + 1.
    """

    remainders: list
    values: list


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
    c = np.fft.fft(f) / f.size
    dc = np.zeros_like(c)
    dc[:-1] = np.arange(1, c.size) * c[1:]
    return np.fft.ifft(dc) * dc.size


def series_value(f, a):
    """Truncated series value f(a) = sum_k f_hat(k) a^k at a pole |a| < 1.

    By Parseval <f, e_a> = sqrt(1-|a|^2) * mean(f * z/(z - a)) over the circle
    points z, and the sampled kernel's aliased coefficients give <f, e_a> =
    sqrt(1-|a|^2) * f(a) / (1 - a^N); so f(a) = mean(f * z/(z-a)) * (1 - a^N).
    """
    a = complex(a)
    if abs(a) >= 1.0:
        raise ValueError(f"pole must satisfy |a| < 1, got |a| = {abs(a)}")
    z = circle_points(f.size)
    return complex(np.mean(f * z / (z - a))) * (1.0 - a**f.size)


def reduce_step(fj, a, fj_at_a):
    """One reduction: extract the e_a component and divide out the Moebius factor.

    (f - <f, e_a> e_a) (1 - conj(a) z)/(z - a), with <f, e_a> e_a(z) =
    f(a) (1-|a|^2) / ((1 - a^N)(1 - conj(a) z)) written out.
    """
    z = circle_points(fj.size)
    extracted = fj_at_a * (1.0 - abs(a) ** 2) / (1.0 - a**fj.size)
    return (fj * (1.0 - np.conj(a) * z) - extracted) / (z - a)


def derivative_reduce_step(fj, fj_prime, a, fj_at_a):
    """Remainder-derivative recursion paired with reduce_step at pole a."""
    z = circle_points(fj.size)
    term1 = fj_prime * (1.0 - np.conj(a) * z) / (z - a)
    term2 = (fj - fj_at_a) * (abs(a) ** 2 - 1.0) / (z - a) ** 2
    return term1 + term2


def reduce_chain(f, order):
    """Reduce f through the poles of `order`, recording each stage value."""
    remainders = [f]
    values = []
    for a in np.atleast_1d(np.asarray(order, dtype=complex)):
        values.append(series_value(remainders[-1], a))
        remainders.append(reduce_step(remainders[-1], a, values[-1]))
    return ReductionTrail(remainders, values)


def _stage_energy(poles, values):
    """sum_j (1-|a_j|^2) |f_j(a_j)|^2 over stage values in tuple order."""
    return sum((1.0 - abs(a) ** 2) * abs(v) ** 2 for a, v in zip(poles, values))


def _finite(value, name):
    """The scalar result, checked at the boundary instead of every stage."""
    if not np.isfinite(value):
        raise ArithmeticError(f"{name} is not finite")
    return value


def energy(f, tup):
    """Energy E(a) = sum_j (1-|a_j|^2) |f_j(a_j)|^2 via one reduction pass."""
    trail = reduce_chain(f.samples, tup.poles)
    return _finite(_stage_energy(tup.poles, trail.values), "energy")


def error_energy(f, tup):
    """Squared approximation error A = ||f||^2 - E(a) as a remainder norm.

    The Moebius factor is unimodular on the circle, so the discrete norm of
    the final remainder equals the unextracted energy exactly.  Near an
    exact recovery this is far better conditioned than ||f||^2 - energy():
    A is computed from the small remainder itself instead of as the
    difference of two order-one quantities.
    """
    rest = reduce_chain(f.samples, tup.poles).remainders[-1]
    return _finite(float(np.sum(np.abs(rest) ** 2) / rest.size), "error energy")


def energy_gradient(f, tup):
    """Energy and d(-E)/da_l = -conj(g_l) f_n(a_l) for each pole, from one chain.

    The branch that reduces through a_l last leaves h_l = M_l f_n + c k_{a_l},
    so its formula conj(h_l(a_l)) (conj(a_l) h_l(a_l) - (1-|a_l|^2) h_l'(a_l))
    reduces to -conj(g_l) f_n(a_l), with g_l = h_l(a_l) the inner product of
    f with the kernel times B/M_l.  The means for g_l run on 2N points, where
    conj(B) = prod (1 - conj(a_j) z)/(z - a_j) aliases at max|a|^(2N), not
    max|a|^N.
    """
    poles = tup.poles
    if is_degenerate(poles):
        raise ValueError("pole tuple is degenerate (nearly repeated poles)")
    trail = reduce_chain(f.samples, poles)
    fine = np.fft.ifft(np.fft.fft(f.samples), 2 * f.n_samples) * 2
    z = circle_points(fine.size)
    weight = fine * z
    for a in poles:
        weight = weight * (1.0 - np.conj(a) * z) / (z - a)
    g = np.array([np.mean(weight / (1.0 - np.conj(a) * z)) for a in poles])
    rest = trail.remainders[-1]
    rest_at = np.array([series_value(rest, a) for a in poles])
    return EnergyGradient(_stage_energy(poles, trail.values), -np.conj(g) * rest_at)
