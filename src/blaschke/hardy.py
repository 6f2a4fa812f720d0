"""Circle-sampled Hardy-space functions and the Takenaka-Malmquist system.

A function f in H^2 on the unit disk is represented by its N samples at the
equidistant circle points tau_j = exp(2*pi*i*j/N).  The discrete inner
product <f, g> is the sample mean of f * conj(g), the trapezoid quadrature
of the circle integral, as `norm_sq` takes it for <f, f>; by the discrete
Parseval identity it is also sum_k f_hat(k) * conj(g_hat(k)).  The TM
functions B_1, ..., B_n come from one running Moebius product.  Projection
is modified Gram-Schmidt against the running residual, whose squared norm
is the reported error.

A tuple with max|a| well inside the disk has TM functions band-limited to
round-off far below N.  `tm_band` owns that band limit M <= N (an a-priori
start, then a spectral-tail test of the product itself): projection and
synthesis run the product at M and move between M and N samples with one
FFT, so they cost O(nM + N log N), and the refinement's working resolution
starts from the same M.  At M = N they are the plain N-sample loop.

The value types hold read-only one-dimensional complex arrays under one
rule (`_ArrayValue._store`).  `spectrum` stores nothing on a Signal: a
caller that reads f's spectrum twice takes it once and passes it on.
"""

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

# per pole, the share of a TM system's norm that may lie past its band
# limit M, so n * BAND_TOL for n poles: `tm_band` starts where
# max|a|^(M - n) is at most that, and then asks the same of the top
# quarter of the M-point spectrum of the running Blaschke product; its own
# round-off puts about n*eps/2 there (3e-15 at n = 30, up to 2.6e-14 at
# n = 200), so a share that did not grow with n would never pass for large n
BAND_TOL = 1e-15

__all__ = [
    "Signal",
    "Spectrum",
    "PoleTuple",
    "BlaschkeModel",
    "circle_points",
    "spectrum",
    "norm_sq",
    "project",
    "synthesize",
]


def check_sample_count(n):
    """The one test of a sample count: an integer, not a bool, a power of two, at least 2."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2 or n & (n - 1):
        raise ValueError(f"sample count must be a power of two >= 2, got {n}")


def disk_points(points, name):
    """The points as a complex array; the one test of |z| < 1, which NaN fails."""
    z = np.asarray(points, dtype=complex)
    if not np.all(np.abs(z) < 1.0):
        raise ValueError(f"{name} must satisfy |z| < 1, max |z| = {np.max(np.abs(z))}")
    return z


def check_degree(n):
    """The one test of a degree: an integer, not a bool, and at least one pole."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"degree must be an integer of at least 1, got {n!r}")


def draw_separated(rng, n, radius, gap, max_tries):
    """n points uniform in |w| < radius, every two gap or more apart, by rejection.

    Each try draws Re w, then Im w; a ValueError follows max_tries tries.
    """
    check_degree(n)
    points = np.empty(n, dtype=complex)
    count = 0
    for _ in range(max_tries):
        w = rng.uniform(-radius, radius) + 1j * rng.uniform(-radius, radius)
        if abs(w) >= radius or (count and np.min(np.abs(points[:count] - w)) < gap):
            continue
        points[count] = w
        count += 1
        if count == n:
            return points
    raise ValueError(f"could not draw {n} separated poles in {max_tries} tries")


class _ArrayValue:
    """Value equality for the frozen array types: every field equal, arrays
    by np.array_equal.  Unhashable, like the arrays they hold."""

    __hash__ = None

    def _store(self, name):
        """Store field `name` as a read-only 1-D complex copy and return it: the
        value types' one array rule.  A scalar becomes one entry."""
        value = np.array(getattr(self, name), dtype=complex, ndmin=1)
        if value.ndim != 1:
            raise ValueError(f"{name} must be one-dimensional, got shape {value.shape}")
        value.setflags(write=False)
        object.__setattr__(self, name, value)
        return value

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        for field in fields(self):
            mine, theirs = getattr(self, field.name), getattr(other, field.name)
            if isinstance(mine, np.ndarray):
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True


@dataclass(frozen=True, eq=False)
class Signal(_ArrayValue):
    """N equidistant complex samples on the unit circle, sample j at angle 2*pi*j/N."""

    samples: np.ndarray

    def __post_init__(self):
        check_sample_count(self._store("samples").size)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    @property
    def n_samples(self):
        return self.samples.size


@dataclass(frozen=True, eq=False)
class Spectrum(_ArrayValue):
    """Nonnegative-frequency Fourier coefficients; index k holds f_hat(k)."""

    coeffs: np.ndarray

    def __post_init__(self):
        check_sample_count(self._store("coeffs").size)

    @property
    def n_samples(self):
        return self.coeffs.size


@dataclass(frozen=True, eq=False)
class PoleTuple(_ArrayValue):
    """Ordered, non-empty tuple of poles |a| < 1; a pole may repeat.

    The one place a tuple is validated: the energy and its gradient take a
    PoleTuple and test nothing again.  Repeated poles are admitted, as in
    the Takenaka-Malmquist system: no kernel divides by a pole difference.
    """

    poles: np.ndarray

    def __post_init__(self):
        check_degree(self._store("poles").size)
        disk_points(self.poles, "poles")

    @property
    def degree(self):
        return self.poles.size


@dataclass(frozen=True, eq=False)
class BlaschkeModel(_ArrayValue):
    """A pole tuple with the coefficients of the n-Blaschke form sum c_k B_k,
    finite, and a finite nonnegative residual_error."""

    tuple: PoleTuple
    coeffs: np.ndarray
    residual_error: float = 0.0

    def __post_init__(self):
        if self._store("coeffs").size != self.tuple.degree:
            raise ValueError("coefficient count must equal the tuple degree")
        if not np.isfinite(self.coeffs).all():
            raise ValueError("coefficients must be finite")
        # NaN fails both comparisons
        if not 0.0 <= self.residual_error < np.inf:
            raise ValueError("residual_error must be finite and nonnegative")

    @property
    def degree(self):
        return self.tuple.degree


@lru_cache(maxsize=32)
def circle_points(n):
    """The n equidistant points exp(2*pi*i*j/n), j = 0..n-1 (cached, read-only)."""
    check_sample_count(n)
    pts = np.exp(2j * np.pi * np.arange(n) / n)
    pts.setflags(write=False)
    return pts


def spectrum(f):
    """Fourier coefficients with the mean-value normalization (constant 1 -> (1,0,...)),
    by one forward-normalized FFT, whose 1/N gives the bits of fft / N."""
    return Spectrum(np.fft.fft(f.samples, norm="forward"))


def norm_sq(f):
    """Squared discrete H^2 norm of a Signal."""
    return float(np.sum(np.abs(f.samples) ** 2) / f.n_samples)


def _tm_columns(poles, z):
    """Yield (B_k, P_k) at the points z for k = 1..n from a running Moebius product.

    B_k(z) = e_{a_k}(z) * P_{k-1}(z) with the Blaschke product
    P_k(z) = prod_{j<=k} (z - a_j) / (1 - conj(a_j) z).  Each pole takes one
    division: with P_0 = 1, d_k = P_{k-1} / (1 - conj(a_k) z) gives both
    B_k = sqrt(1 - |a_k|^2) * d_k and P_k = d_k * (z - a_k).
    """
    blaschke = np.ones_like(z)
    for a in poles:
        d = blaschke / (1.0 - np.conj(a) * z)
        blaschke = d * (z - a)
        yield np.sqrt(1.0 - abs(a) ** 2) * d, blaschke


def _band_limited(product, degree):
    """Whether the TM system of n = degree poles, its product P_n sampled here, is band-limited.

    P_n has unit norm on the circle, and its Fourier coefficients decay from
    the poles like every TM function's: they rise to a peak, late for
    clustered or repeated poles, and then fall.  So when its M-point
    coefficients in [3M/4, M) hold at most n * BAND_TOL of that norm, the
    peak lies below them, and the coefficients beyond M, which alias onto
    the M samples, are at round-off too.  P_n's tail can read a few times
    below a column's (about sqrt(1 - |a|^2) at a pole a repeated n times),
    which the tolerance's margin over round-off covers.
    """
    m = product.size
    return np.linalg.norm(np.fft.fft(product)[3 * m // 4:]) / m <= BAND_TOL * degree


def tm_band(tup, n_samples):
    """The tuple's TM columns B_1..B_n at its band limit M <= N = n_samples, as a list.

    M starts at the smallest power of two m with 2n <= m < N and
    max|a|^(m - n) at most n * BAND_TOL, else at N.  That is the decay of
    the TM functions' Fourier coefficients from the farthest pole, so it
    sizes their spectral tail beyond m and their aliasing on m samples for
    well-separated poles; for clustered poles it can be far too small, a
    first guess, not a bound.  So M then doubles until the Blaschke product
    of the same `_tm_columns` pass passes `_band_limited`; M = N needs no
    test.  `project` and `synthesize` run at this M, and the refinement's
    working resolution starts from it.
    """
    radius, n = float(np.max(np.abs(tup.poles))), tup.degree
    m = 2
    while m < n_samples and (m < 2 * n or radius ** (m - n) > BAND_TOL * n):
        m *= 2
    while True:
        columns = []
        for b, product in _tm_columns(tup.poles, circle_points(m)):
            columns.append(b)
        if m == n_samples or _band_limited(product, n):
            return columns
        m *= 2


def project(f, tup):
    """Orthogonal projection of f onto the span of the TM system of the tuple.

    Modified Gram-Schmidt (Bjorck, BIT 7, 1967): each coefficient
    c_k = <rest, B_k> is taken against the running residual, from which
    c_k * B_k is then subtracted.  It runs at the tuple's band limit M
    (`tm_band`): on the M-point signal with spectrum f_hat(0..M-1), and at
    M = N on f's own samples.  The TM functions carry nothing beyond M, so
    f need not be band-limited: the reported residual is
    sum_{k>=M} |f_hat(k)|^2 + ||rest||^2, the squared H^2 error of the
    returned model.  It is a norm, so it is never negative, and it equals
    `reduction.error_energy` at the same tuple to round-off relative to
    ||f||^2.
    """
    columns = tm_band(tup, f.n_samples)
    m = columns[0].size
    if m == f.n_samples:
        rest, tail = f.samples.copy(), 0.0
    else:
        spec = spectrum(f).coeffs
        rest = np.fft.ifft(spec[:m]) * m
        tail = float(np.sum(np.abs(spec[m:]) ** 2))
    coeffs = []
    for b in columns:
        c = np.vdot(b, rest) / m
        rest -= c * b
        coeffs.append(c)
    return BlaschkeModel(tup, coeffs, tail + float(np.vdot(rest, rest).real) / m)


def synthesize(model, n_samples):
    """Samples of the Blaschke form sum_k c_k B_k at n equidistant circle points.

    The sum is taken at the tuple's band limit M (`tm_band`); below N its
    M-point spectrum is zero-padded to N and inverted by one FFT, which is
    exact to round-off because the TM functions carry nothing beyond M.
    """
    check_sample_count(n_samples)
    columns = tm_band(model.tuple, n_samples)
    m = columns[0].size
    out = np.zeros(m, dtype=complex)
    for c, b in zip(model.coeffs, columns):
        out += c * b
    if m == n_samples:
        return Signal(out)
    return Signal(np.fft.ifft(np.fft.fft(out), n_samples) * (n_samples / m))
