"""Circle-sampled Hardy-space functions and the Takenaka-Malmquist system.

A function f in H^2 on the unit disk is represented by its N samples at the
equidistant circle points tau_j = exp(2*pi*i*j/N).  The discrete inner
product is defined spectrally, so the discrete Parseval identity holds by
construction and agrees with the trapezoid quadrature of the circle
integral: <f, g> is also the sample mean of f * conj(g).  The TM functions
B_1, ..., B_n come from one running Moebius product, so projection and
synthesis cost O(nN).  Projection is modified Gram-Schmidt against the
running residual, whose squared norm is the reported error.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Signal",
    "Spectrum",
    "PoleTuple",
    "BlaschkeModel",
    "circle_points",
    "spectrum",
    "inverse_spectrum",
    "inner_product",
    "norm_sq",
    "szego_kernel",
    "szego_signal",
    "tm_basis",
    "project",
    "synthesize",
]


# the least distance between two poles of an admissible tuple
MIN_SEPARATION = 1e-12


def _is_power_of_two(n):
    return n >= 2 and (n & (n - 1)) == 0


def separated(poles):
    """Whether every two of the finite poles lie at least MIN_SEPARATION apart."""
    # only the n zero distances of the poles to themselves may fall below it
    close = np.abs(poles[:, None] - poles) < MIN_SEPARATION
    return np.count_nonzero(close) == poles.size


@dataclass(frozen=True)
class Signal:
    """N equidistant complex samples on the unit circle, sample j at angle 2*pi*j/N."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=complex)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or not _is_power_of_two(samples.size):
            raise ValueError(
                f"sample count must be a power of two >= 2, got {samples.size}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        samples.setflags(write=False)

    @property
    def n_samples(self):
        return self.samples.size


@dataclass(frozen=True)
class Spectrum:
    """Nonnegative-frequency Fourier coefficients; index k holds f_hat(k)."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1 or not _is_power_of_two(coeffs.size):
            raise ValueError(
                f"coefficient count must be a power of two >= 2, got {coeffs.size}"
            )
        coeffs.setflags(write=False)

    @property
    def n_coeffs(self):
        return self.coeffs.size


@dataclass(frozen=True)
class PoleTuple:
    """Ordered tuple of poles |a| < 1, every two at least MIN_SEPARATION apart.

    The one place a tuple is validated: the energy and its gradient take a
    PoleTuple and test nothing again, and the search and the refinement
    screen their moves with the same `separated` before they build one.
    """

    poles: np.ndarray

    def __post_init__(self):
        poles = np.atleast_1d(np.array(self.poles, dtype=complex))
        object.__setattr__(self, "poles", poles)
        if poles.size < 1:
            raise ValueError("pole tuple must be non-empty")
        mags = np.abs(poles)
        if not np.all(mags < 1.0):
            raise ValueError(f"all poles must satisfy |a| < 1, max |a| = {mags.max()}")
        if not separated(poles):
            raise ValueError(f"poles must lie at least {MIN_SEPARATION} apart")
        poles.setflags(write=False)

    @property
    def degree(self):
        return self.poles.size

    def __len__(self):
        return self.poles.size


@dataclass(frozen=True)
class BlaschkeModel:
    """A pole tuple with the coefficients of the n-Blaschke form sum c_k B_k."""

    tuple: PoleTuple
    coeffs: np.ndarray
    residual_error: float = 0.0

    def __post_init__(self):
        coeffs = np.atleast_1d(np.array(self.coeffs, dtype=complex))
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.size != self.tuple.degree:
            raise ValueError("coefficient count must equal the tuple degree")
        if self.residual_error < 0.0:
            raise ValueError("residual_error must be nonnegative")
        coeffs.setflags(write=False)

    @property
    def degree(self):
        return self.tuple.degree


@lru_cache(maxsize=32)
def _circle_points_cached(n):
    pts = np.exp(2j * np.pi * np.arange(n) / n)
    pts.setflags(write=False)
    return pts


def circle_points(n):
    """The n equidistant points exp(2*pi*i*j/n), j = 0..n-1 (cached, read-only)."""
    return _circle_points_cached(int(n))


def spectrum(f):
    """Fourier coefficients with the mean-value normalization (constant 1 -> (1,0,...)).

    The result is memoized on the (immutable) Signal.
    """
    cached = getattr(f, "_spectrum_cache", None)
    if cached is None:
        cached = Spectrum(np.fft.fft(f.samples) / f.n_samples)
        object.__setattr__(f, "_spectrum_cache", cached)
    return cached


def inverse_spectrum(s):
    """Signal whose samples are sum_k coeffs[k] * tau^k at the circle points."""
    return Signal(np.fft.ifft(s.coeffs) * s.n_coeffs)


def inner_product(f, g):
    """Discrete H^2 inner product sum_k f_hat(k) * conj(g_hat(k))."""
    if f.n_samples != g.n_samples:
        raise ValueError(
            f"sample counts differ: {f.n_samples} != {g.n_samples}"
        )
    return complex(np.sum(spectrum(f).coeffs * np.conj(spectrum(g).coeffs)))


def norm_sq(f):
    """Squared discrete H^2 norm of a Signal."""
    return float(np.sum(np.abs(f.samples) ** 2) / f.n_samples)


def szego_kernel(a, points):
    """Normalized Szego kernel e_a(z) = sqrt(1-|a|^2) / (1 - conj(a) z)."""
    a = complex(a)
    if abs(a) >= 1.0:
        raise ValueError(f"kernel parameter must satisfy |a| < 1, got |a| = {abs(a)}")
    z = np.asarray(points, dtype=complex)
    return np.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z)


def szego_signal(a, n_samples):
    """Szego kernel e_a sampled at the n equidistant circle points."""
    return Signal(szego_kernel(a, circle_points(n_samples)))


def _tm_columns(poles, z):
    """Yield B_1, ..., B_n at the points z from a running Moebius product.

    B_k(z) = e_{a_k}(z) * prod_{j<k} (z - a_j) / (1 - conj(a_j) z).  Each
    pole takes one division: with P_0 = 1, d_k = P_{k-1} / (1 - conj(a_k) z)
    gives both B_k = sqrt(1 - |a_k|^2) * d_k and P_k = d_k * (z - a_k).
    """
    blaschke = np.ones_like(z)
    for a in poles:
        d = blaschke / (1.0 - np.conj(a) * z)
        yield np.sqrt(1.0 - abs(a) ** 2) * d
        blaschke = d * (z - a)


def tm_basis(tup, k, points):
    """Takenaka-Malmquist basis function B_k at the given points (k is 1-based)."""
    if not 1 <= k <= tup.degree:
        raise IndexError(f"basis index {k} out of range 1..{tup.degree}")
    for out in _tm_columns(tup.poles[:k], np.asarray(points, dtype=complex)):
        pass
    return out


def project(f, tup):
    """Orthogonal projection of f onto the span of the TM system of the tuple.

    Modified Gram-Schmidt (Bjorck, BIT 7, 1967): each coefficient
    c_k = <rest, B_k> is taken against the running residual, from which
    c_k * B_k is then subtracted.  The reported residual is ||rest||^2, the
    squared H^2 error of the returned model; it is a norm, so it is never
    negative, and it equals `reduction.error_energy` at the same tuple to
    round-off relative to ||f||^2.
    """
    n = f.n_samples
    rest = f.samples.copy()
    coeffs = []
    for b in _tm_columns(tup.poles, circle_points(n)):
        c = np.vdot(b, rest) / n
        rest -= c * b
        coeffs.append(c)
    return BlaschkeModel(tup, coeffs, float(np.vdot(rest, rest).real) / n)


def synthesize(model, n_samples):
    """Samples of the Blaschke form sum_k c_k B_k at n equidistant circle points."""
    z = circle_points(n_samples)
    out = np.zeros(n_samples, dtype=complex)
    for c, b in zip(model.coeffs, _tm_columns(model.tuple.poles, z)):
        out += c * b
    return Signal(out)
