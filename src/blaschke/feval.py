"""Polar grid and FFT-accelerated evaluation of <f, e_z> over all grid nodes.

The identity <f, e_z> = sqrt(1-r^2) * sum_k r^k f_hat(k) e^{ikt} for
z = r e^{it} lets one inverse FFT evaluate a whole radius ring at once:
scale the spectrum by r^k, transform, multiply by sqrt(1-r^2).  Total cost
O(N*M*log N) over an (M-1) x N grid.

`eval_interior` sums the series directly and is the tests' reference; the
solver evaluates single points by Parseval (`reduction.series_value`).
"""

from dataclasses import dataclass

import numpy as np

from .hardy import Signal, Spectrum, spectrum

__all__ = [
    "PolarGrid",
    "InnerProductTable",
    "build_polar_grid",
    "scale_spectrum",
    "eval_interior",
    "feval_table",
]


@dataclass(frozen=True)
class PolarGrid:
    """Nodes z = m*eps*exp(2*pi*i*n/N) for 1 <= m < M, 1 <= n <= N, eps = 1/M."""

    radial: int
    angular: int

    def __post_init__(self):
        if self.radial <= 1 or self.angular <= 1:
            raise ValueError("grid requires radial > 1 and angular > 1")
        if self.angular & (self.angular - 1):
            raise ValueError("angular division count must be a power of two")

    @property
    def eps(self):
        return 1.0 / self.radial

    @property
    def node_count(self):
        return (self.radial - 1) * self.angular

    @property
    def radii(self):
        return np.arange(1, self.radial) * self.eps

    def nodes(self):
        """(M-1) x N node matrix, entry (m-1, n-1) = m*eps * exp(2*pi*i*n/N)."""
        angles = np.exp(2j * np.pi * np.arange(1, self.angular + 1) / self.angular)
        return self.radii[:, None] * angles[None, :]


@dataclass(frozen=True)
class InnerProductTable:
    """Matrix of <f, e_z> over a polar grid, laid out like PolarGrid.nodes()."""

    values: np.ndarray
    grid: PolarGrid

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.radial - 1, self.grid.angular):
            raise ValueError(
                f"table shape {values.shape} does not match grid "
                f"({self.grid.radial - 1}, {self.grid.angular})"
            )
        values.setflags(write=False)


def build_polar_grid(radial, angular):
    """Polar grid with radial step 1/radial and a power-of-two angular count."""
    return PolarGrid(radial, angular)


def scale_spectrum(s, r):
    """Apply the scaling operator: coefficient k is multiplied by r^k."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"scaling radius must lie in [0, 1], got {r}")
    return Spectrum(s.coeffs * r ** np.arange(s.n_coeffs))


def eval_interior(f, z):
    """Value of the analytic function at an interior point |z| < 1.

    Sums the truncated power series sum_k f_hat(k) z^k directly; `f` may be
    a Signal or a Spectrum, `z` a scalar or an array of interior points.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("evaluation points must satisfy |z| < 1")
    coeffs = f.coeffs if isinstance(f, Spectrum) else spectrum(f).coeffs
    values = np.polynomial.polynomial.polyval(z, coeffs)
    return complex(values) if z.ndim == 0 else values


def feval_table(f, grid):
    """<f, e_z> at every polar-grid node via one inverse FFT per radius ring.

    Ring m uses the base spectrum scaled by (m*eps)^k.  The signal's sample
    count must be a multiple of the grid's angular count; coarser rings fold
    the scaled spectrum modulo the angular count, which evaluates the same
    truncated series at the subsampled angles.
    """
    if isinstance(f, Signal):
        coeffs = spectrum(f).coeffs
    elif isinstance(f, Spectrum):
        coeffs = f.coeffs
    else:
        raise TypeError(f"expected Signal or Spectrum, got {type(f).__name__}")
    n_sig = coeffs.size
    n_ang = grid.angular
    if n_sig % n_ang:
        raise ValueError(
            f"signal length {n_sig} is not a multiple of angular count {n_ang}"
        )
    radii = grid.radii
    rows = np.empty((radii.size, n_ang), dtype=complex)
    # process rings in fixed-size blocks so the temporaries stay
    # cache-resident and the cost scales linearly in the ring count
    block = 16
    for lo in range(0, radii.size, block):
        r = radii[lo : lo + block]
        # (block, n_sig) radial power table r_m^k by cumulative product
        powers = np.ones((r.size, n_sig))
        powers[:, 1:] = r[:, None]
        np.cumprod(powers, axis=1, out=powers)
        scaled = powers * coeffs[None, :]
        folded = scaled.reshape(r.size, n_sig // n_ang, n_ang).sum(axis=1)
        out = np.fft.ifft(folded, axis=1) * n_ang
        out *= np.sqrt(1.0 - r**2)[:, None]
        rows[lo : lo + block] = out
    # column n-1 holds angle 2*pi*n/N (grid angles are 1-based)
    rows = np.roll(rows, -1, axis=1)
    return InnerProductTable(rows, grid)
