"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's fast paths: quadrature sums
are plain Riemann sums over oversampled circle points, and the tuple
distance oracle enumerates permutations.
"""

import itertools
import os

import numpy as np
import pytest
from hypothesis import settings

from blaschke import PoleTuple, Signal, Spectrum, circle_points, eval_interior, hardy, pipeline
from blaschke.feval import RingBand
from blaschke.hardy import disk_points

# CI selects this profile (HYPOTHESIS_PROFILE=ci): a slow shared runner must
# not trip the per-example deadline, and a fixed example sequence makes a
# failure reproducible from the log
settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def inverse_spectrum(s):
    """Signal whose samples are sum_k s.coeffs[k] * tau^k at the circle points."""
    return Signal(np.fft.ifft(s.coeffs) * s.coeffs.size)


def szego_kernel(a, points):
    """Normalized Szego kernel e_a(z) = sqrt(1-|a|^2) / (1 - conj(a) z)."""
    a = complex(disk_points(a, "kernel parameter"))
    z = np.asarray(points, dtype=complex)
    return np.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z)


def szego_signal(a, n_samples):
    """Szego kernel e_a sampled at the n equidistant circle points."""
    return Signal(szego_kernel(a, circle_points(n_samples)))


def random_smooth_signal(rng, n_samples=64, decay=0.5):
    """Random analytic signal with geometrically decaying coefficients."""
    k = np.arange(n_samples)
    coeffs = (rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples))
    coeffs = coeffs * decay**k
    return inverse_spectrum(Spectrum(coeffs))


def quadrature_kernel_inner(coeffs, z, oversample=4096):
    """Trapezoid quadrature of <f, e_z> on an oversampled circle.

    f is given by its truncated power-series coefficients; e_z is evaluated
    in closed form.  On the circle the trapezoid rule is the plain mean, so
    this is (1/Nq) * sum_j f(w_j) * conj(e_z(w_j)).
    """
    w = np.exp(2j * np.pi * np.arange(oversample) / oversample)
    fvals = np.polynomial.polynomial.polyval(w, coeffs)
    ez = np.sqrt(1.0 - abs(z) ** 2) / (1.0 - np.conj(z) * w)
    return complex(np.mean(fvals * np.conj(ez)))


def quadrature_kernel_inner_many(coeffs, zs, oversample=4096):
    """Vectorized form of quadrature_kernel_inner over an array of points."""
    w = np.exp(2j * np.pi * np.arange(oversample) / oversample)
    fvals = np.polynomial.polynomial.polyval(w, coeffs)
    zs = np.asarray(zs, dtype=complex).ravel()
    ez = np.sqrt(1.0 - np.abs(zs) ** 2)[:, None] / (
        1.0 - np.conj(zs)[:, None] * w[None, :]
    )
    return np.mean(fvals[None, :] * np.conj(ez), axis=1)


def kernel_reference(f, grid):
    """sqrt(1-|z|^2) * f(z) at the nodes of a grid or band, the series summed directly."""
    band = grid if isinstance(grid, RingBand) else grid.band(0, grid.radial - 1)
    nodes = band.grid.nodes()[band.lo:band.hi]
    return np.sqrt(1.0 - np.abs(nodes) ** 2) * eval_interior(f, nodes)


def quadrature_inner(f, g):
    """Sample-domain inner product (1/N) sum f_j conj(g_j) of two Signals."""
    return complex(np.mean(f.samples * np.conj(g.samples)))


def brute_tuple_distance(u, v):
    """min over permutations of ||P u - v|| by exhaustive enumeration."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    best = np.inf
    for perm in itertools.permutations(range(u.size)):
        best = min(best, float(np.linalg.norm(u[list(perm)] - v)))
    return best


def monomial_signal(k, n_samples):
    """Samples of tau^k on the unit circle."""
    tau = np.exp(2j * np.pi * np.arange(n_samples) / n_samples)
    return Signal(tau**k)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# tuples whose TM functions are far wider in frequency than the a-priori
# start max|a|^(M - n) predicts: a 30-fold pole at 0.9 (its columns'
# spectral tail beyond 512 is 0.44 of their norm), and 30 poles at radius
# 0.9, 0.01 rad apart (tail 1.6e-8 beyond 512)
REPEATED = PoleTuple(np.full(30, 0.9))
CLUSTER = PoleTuple(0.9 * np.exp(0.01j * np.arange(30)))


@pytest.fixture
def band_limits(monkeypatch):
    """The sample count M of every band-limit test the transforms make."""
    seen = []
    real = hardy._band_limited

    def spy(product, degree):
        passed = real(product, degree)
        seen.append((product.size, passed))
        return passed

    monkeypatch.setattr(hardy, "_band_limited", spy)
    return seen


def band_limit(seen, n_samples):
    """The M a transform ran at: the first passed test, else N; clears `seen`."""
    m = next((size for size, passed in seen if passed), n_samples)
    seen.clear()
    return m


# the polar search's tuples for four builtin runs at N = 1024 (ex5_3 at
# angular 128, the others on the default grid), as grid nodes; fixed here so
# that the tests that refine from them reach the same states whatever start
# the search takes
SEARCH_TUPLES = {
    "ex5_3": [0.2594051871120091 - 0.7249889301909261j,
              0.5404552479966545 + 0.3611206514627414j,
              -0.4881542182866595 - 0.23087975045235218j,
              -0.4739376790124509 + 0.31667503282117326j,
              -0.17737553132938264 + 0.7081228148320171j],
    "ex5_4": [-0.9378015290175648 - 0.28447898370937286j,
              -0.4832565795416285 - 0.8062648934002558j,
              0.2492984915102425 - 0.6967426082354354j,
              0.39028085201541146 + 0.08764049606274793j],
    "ex5_5": [-0.12912281752071883 - 0.8704753287690072j,
              0.5419027033139177 - 0.09402903881816599j,
              0.384799584087254 + 0.8135903638110991j,
              0.6779779277588814 + 0.5290991678993391j],
    "ex5_1_f3": [3.9801020972288984e-17 + 0.65j, 2.5717582782094416e-17 + 0.42j,
                 -0.14 + 1.7145055188062947e-17j, 0.14 - 3.4290110376125894e-17j,
                 -1.1940306291686693e-16 - 0.65j, -7.898971854500428e-17 - 0.43j],
}


def fix_search_tuple(monkeypatch, name):
    """Make the pipeline's search return the tuple SEARCH_TUPLES[name]."""
    tup = PoleTuple(SEARCH_TUPLES[name])
    monkeypatch.setattr(pipeline, "its_search", lambda f, n, cfg: tup)
