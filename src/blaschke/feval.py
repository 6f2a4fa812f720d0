"""Polar grid and fast evaluation of <f, e_z> over the grid's nodes.

For z = r e^{it}, <f, e_z> = sqrt(1-r^2) * sum_k r^k f_hat(k) e^{ikt}.  On
a ring of A angles the series folds modulo A before one inverse FFT of
length A, and the fold factors: with Q = N/A,

    folded[j] = r^j * sum_q (r^A)^q * f_hat(j + qA),   0 <= j < A.

The ring tables V[m, q] = r_m^{qA} and R[m, j] = sqrt(1-r_m^2) * r_m^j
depend only on the grid and N; they are built once per (radial, angular,
N), cached and read-only, with entries below 1e-200 set to exactly 0 so
that no subnormal operand reaches the per-call path.  A call is one real
matrix product of V with the spectrum viewed as a Q x 2A real array, a
multiplication by R, and one inverse FFT of length A per ring: O(M*N)
multiply-adds plus M FFTs over an (M-1) x A grid.  The result is a plain
read-only complex array laid out like `PolarGrid.nodes()`.

The same tables bound a ring without transforming it: by the triangle
inequality every |<f, e_z>| on ring m is at most

    UB_m = sqrt(1-r_m^2) * sum_k r_m^k |f_hat(k)|,

which `ring_bounds` takes as the row sums of (R @ |F|^T) o V, |F| being
|f_hat| viewed as Q x A: one small real matrix product into a rings x Q
array, no FFT.
`feval_table` also accepts a band of consecutive rings (`grid.band(lo, hi)`)
and returns only its rows.  The product still runs over whole blocks of 16
rings aligned as for the full grid, and only the band's rows are scaled by
R and transformed, so a band's rows equal the full table's bit for bit (a
product over the band's rows alone may split its sums differently and
differ in the last bit).  Most of the search's scans have a one-ring band,
whose call then scales one row of its block, not 16.  The full grid is the
band of all rings.

`eval_interior` sums the series directly and is the tests' reference; the
solver evaluates single points by Parseval means over the circle points,
each a dot product with the pole's z w row (`reduction.pole_rows`), which
the search builds once per search and rebuilds for one pole per move.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hardy import Signal, Spectrum, disk_points, spectrum

__all__ = [
    "PolarGrid",
    "eval_interior",
    "feval_table",
    "ring_bounds",
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

    def check_samples(self, n_samples):
        """Reject a sample count the table cannot fold: not a multiple of angular."""
        if n_samples % self.angular:
            raise ValueError(
                f"signal length {n_samples} is not a multiple of angular count {self.angular}"
            )

    @property
    def eps(self):
        return 1.0 / self.radial

    @property
    def radii(self):
        return np.arange(1, self.radial) * self.eps

    def nodes(self):
        """(M-1) x N node matrix, entry (m-1, n-1) = m*eps * exp(2*pi*i*n/N)."""
        angles = np.exp(2j * np.pi * np.arange(1, self.angular + 1) / self.angular)
        return self.radii[:, None] * angles[None, :]

    def band(self, lo, hi):
        """The rings lo .. hi-1, rows lo .. hi-1 of `nodes()`."""
        return RingBand(self, lo, hi)


@dataclass(frozen=True)
class RingBand:
    """Consecutive rings lo .. hi-1 of a polar grid, counted from 0."""

    grid: PolarGrid
    lo: int
    hi: int

    def __post_init__(self):
        if not 0 <= self.lo < self.hi < self.grid.radial:
            raise ValueError(
                f"band [{self.lo}, {self.hi}) is not inside rings [0, {self.grid.radial - 1})"
            )

    @property
    def radial(self):
        return self.grid.radial

    @property
    def angular(self):
        return self.grid.angular


def eval_interior(f, z):
    """Value of the analytic function at an interior point |z| < 1.

    Sums the truncated power series sum_k f_hat(k) z^k directly; `f` may be
    a Signal or a Spectrum, `z` a scalar or an array of interior points.
    """
    z = disk_points(z, "evaluation points")
    coeffs = f.coeffs if isinstance(f, Spectrum) else spectrum(f).coeffs
    values = np.polynomial.polynomial.polyval(z, coeffs)
    return complex(values) if z.ndim == 0 else values


# table entries below this are set to 0, so that their products with the
# spectrum never fall into the subnormal range, where arithmetic is slow
_FLUSH = 1e-200

# rings per block, so the per-call temporaries stay cache-resident and the
# cost grows linearly in the ring count
_BLOCK = 16


@lru_cache(maxsize=32)
def _ring_tables(grid, n):
    """Read-only V[m, q] = r_m^{qA} and R[m, j] = sqrt(1-r_m^2) r_m^j."""
    r = grid.radii[:, None]
    v_tab = r ** (grid.angular * np.arange(n // grid.angular))
    r_tab = np.sqrt(1.0 - r**2) * r ** np.arange(grid.angular)
    for table in (v_tab, r_tab):
        table[table < _FLUSH] = 0.0
        table.setflags(write=False)
    return v_tab, r_tab


def _coeffs(f, grid):
    """f's spectrum, checked against the grid's angular count."""
    if isinstance(f, Signal):
        coeffs = spectrum(f).coeffs
    elif isinstance(f, Spectrum):
        coeffs = f.coeffs
    else:
        raise TypeError(f"expected Signal or Spectrum, got {type(f).__name__}")
    grid.check_samples(coeffs.size)
    return coeffs


def ring_bounds(f, grid):
    """UB_m >= |<f, e_z>| at every node z of ring m, for each of the grid's rings.

    UB_m = sqrt(1-r_m^2) * sum_k r_m^k |f_hat(k)|, computed from the cached
    ring tables as the row sums of (R @ |F|^T) o V; `f` as in `feval_table`.
    """
    coeffs = _coeffs(f, grid)
    v_tab, r_tab = _ring_tables(grid, coeffs.size)
    sums = r_tab @ np.abs(coeffs).reshape(-1, grid.angular).T
    sums *= v_tab
    return sums.sum(axis=1)


def feval_table(f, grid):
    """<f, e_z> at the nodes of a polar grid, or of a band of its rings.

    Returns a read-only rings x angular complex array whose entry (i, n-1)
    belongs to node (i, n-1) of `grid.nodes()`; for a band, row i is row
    lo + i of the full grid's table, bit for bit.  `f` is a Signal or a
    Spectrum, and its sample count must be a multiple of the grid's angular
    count; the spectrum is folded modulo the angular count, which evaluates
    the same truncated series at the subsampled angles.
    """
    band = grid if isinstance(grid, RingBand) else grid.band(0, grid.radial - 1)
    coeffs = _coeffs(f, band.grid)
    n_ang = grid.angular
    v_tab, r_tab = _ring_tables(band.grid, coeffs.size)
    # row q holds f_hat(qA .. qA+A-1) as interleaved real and imaginary parts
    spec = coeffs.view(np.float64).reshape(-1, 2 * n_ang)
    rows = np.empty((band.hi - band.lo, n_ang), dtype=complex)
    # whole blocks on the full grid's block boundaries, so that every product
    # row is summed as in the full table
    for start in range(band.lo - band.lo % _BLOCK, band.hi, _BLOCK):
        folded = (v_tab[start:start + _BLOCK] @ spec).view(complex)
        lo, hi = max(band.lo, start), min(band.hi, start + _BLOCK)
        # band rows only: R, then the unscaled sum over j of folded[j] * e^{2 pi i jk/A}
        folded = folded[lo - start:hi - start]
        folded *= r_tab[lo:hi]
        out = np.fft.ifft(folded, axis=1, norm="forward")
        # column n-1 holds angle 2*pi*n/A (grid angles are 1-based)
        rows[lo - band.lo:hi - band.lo, :-1] = out[:, 1:]
        rows[lo - band.lo:hi - band.lo, -1] = out[:, 0]
    rows.setflags(write=False)
    return rows
