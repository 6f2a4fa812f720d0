"""Reduced remainders, the energy, its complex gradient and the remainder's Jacobian.

Each reduction step extracts the e_a component from the current remainder
and divides out the Moebius factor (z - a)/(1 - conj(a) z); on the circle
this factor is unimodular, so the discrete norm telescopes exactly:
||f||^2 = E(a) + A, with E(a) = sum_j (1-|a_j|^2) |f_j(a_j)|^2 the energy of
the pole tuple and A = ||f_n||^2 the norm of the final remainder f_n.  The
remainder does not depend on the order of the poles, so d(-E)/da_l has the
closed form -conj(g_l) f_n(a_l), with g_l = mean(f conj(B) z/(1 - conj(a_l) z))
over the circle, B being the tuple's Blaschke product.  `energy_gradient`
returns the ascent direction gradE_l = -conj(d(-E)/da_l) = g_l conj(f_n(a_l))
as a plain complex array.  The same order independence gives the
derivatives of f_n by each pole in closed form (`remainder_jacobian`), the
Jacobian of the refinement's least-squares residual.

The kernel works on raw sample arrays; only `energy`, `error_energy`,
`energy_gradient` and `remainder_jacobian` take a `Signal` (or its
`Objective`) and a `PoleTuple`, whose poles they do not test again.  The
raw-array entry points `reduce_chain` (when it builds its own rows) and
`series_value` test theirs with `hardy.disk_points`.  There is one reduction loop, `reduce_chain`,
and its one result is the final remainder.  A stage makes no division: each pole
has one row set at the sample points (`pole_rows`), w = 1/(z - a), z w and
the Moebius row (1 - conj(a) z) w = w - conj(a) z w, built by one broadcast
per tuple.  The row sets are three contiguous blocks, w, z w and the
Moebius rows, of one 3 x n x len(z) array seen per pole, so each of the
build's broadcasts writes one contiguous block.  A pole's value
f(a) = (1 - a^N) mean(f z w), an O(N) Parseval mean with no FFT, has one
owner, `pole_values`, which the search's coordinate step and
`energy_gradient` call on the z w rows they hold; `series_value`, with its
own 1/(z - a), is the tests' reference.  A stage
(`reduce_step`) is one dot product for the extracted amount
c = (1 - |a|^2) mean(f_j z w) = f_j(a_j) (1 - |a|^2)/(1 - a^N) and one
update f_j (1 - conj(a) z) w - c w.  `reduce_chain` builds the rows at the
N sample points unless its caller passes them; the search builds them once
per search and rebuilds one pole's rows per move.  For a `PoleTuple` they
are taken at the 2N circle points, the N sample points and then the N
midpoints (`_doubled_points`): the chain reads the first half of each row,
and the gradient's means over all 2N points the whole row, since there
1/(1 - conj(a) z) = conj(z w).  The rows, the remainder and the means of
the last tuple, and the gradient's f z at the 2N points, are kept in an
`Objective`, which `cgd_refine` builds once per call or takes from its
caller, so `energy_gradient` and `remainder_jacobian` at a tuple that
`error_energy` just evaluated run no second chain and form conj(B) once,
and a refinement call that starts where the last one on the same
Objective stopped runs no first chain.  A `Signal` passed in gets a fresh
Objective, and nothing is stored on it.  E has one definition,
||f||^2 - A, which `energy` returns and the refinement's energy trace
records.
"""

from functools import cached_property, lru_cache

import numpy as np

from .hardy import circle_points, disk_points, norm_sq, spectrum

__all__ = [
    "Objective",
    "pole_rows",
    "pole_values",
    "series_value",
    "reduce_step",
    "reduce_chain",
    "energy",
    "error_energy",
    "energy_gradient",
    "remainder_jacobian",
]


@lru_cache(maxsize=32)
def _doubled_points(n):
    """The 2n circle points: the n sample points, then the n midpoints (read-only).

    circle_points(2n)[::2] equals circle_points(n) bit for bit, so the first
    half of a reciprocal row on these points is the n-point row, contiguous.
    """
    z = circle_points(2 * n)
    pts = np.concatenate([z[::2], z[1::2]])
    pts.setflags(write=False)
    return pts


def pole_rows(z, poles):
    """Each pole's row set at the points z, as a read-write n x 3 x len(z) array.

    Row set j holds w = 1/(z - a_j), z w and (1 - conj(a_j) z) w, the last
    formed as w - conj(a_j) z w; one broadcast over the tuple.  Each kind
    is one contiguous n x len(z) block of a 3 x n x len(z) array, which the
    broadcasts write whole; the result is its per-pole view, so `rows[:, k]`
    is block k.
    """
    block = np.empty((3, poles.size, z.size), dtype=complex)
    w, zw, moebius = block
    np.subtract(z, poles[:, None], out=w)
    np.divide(1.0, w, out=w)
    np.multiply(z, w, out=zw)
    np.multiply(np.conj(poles)[:, None], zw, out=moebius)
    np.subtract(w, moebius, out=moebius)
    return block.transpose(1, 0, 2)


def pole_values(f, poles, zw):
    """f(a_l) = (1 - a_l^N) mean(f z w_l) per pole, from its z w row at the N points of f.

    By Parseval <f, e_a> = sqrt(1-|a|^2) mean(f z w), w = 1/(z - a), which the
    sampled kernel's aliased coefficients make sqrt(1-|a|^2) f(a)/(1 - a^N).
    """
    return (1.0 - poles**f.size) * (zw @ f) / f.size


def series_value(f, a):
    """Truncated series value f(a) = sum_k f_hat(k) a^k at a pole |a| < 1.

    The tests' reference for `pole_values`: the same mean(f z w) (1 - a^N),
    from its own row w = 1/(z - a) at a checked pole.
    """
    a = complex(a)
    z = circle_points(f.size)
    recip = 1.0 / (z - disk_points(a, "pole"))
    return complex((f * z * recip).sum()) / f.size * (1.0 - a**f.size)


def reduce_step(fj, a, row):
    """One reduction: extract the e_a component and divide out the Moebius factor.

    (f - <f, e_a> e_a) (1 - conj(a) z)/(z - a), with <f, e_a> e_a(z) =
    f(a) (1-|a|^2) / ((1 - a^N)(1 - conj(a) z)) written out, is
    f (1 - conj(a) z) w - c w with the extracted amount c = (1-|a|^2) mean(f z w):
    the (1 - a^N) of f(a) (`pole_values`) cancels.  `row` is the pole's row
    set (`pole_rows`) at the points of f.
    """
    # row[0] is w, row[1] z w and row[2] the Moebius row (1 - conj(a) z) w
    extracted = (1.0 - abs(a) ** 2) / fj.size * np.dot(row[1], fj)
    rest = fj * row[2]
    rest -= extracted * row[0]
    return rest


# the solver makes no derivative step; perfbench/tracing.py CALL_SITES looks this up by name
def derivative_reduce_step(fj, fj_prime, a, fj_at_a):
    """Remainder-derivative recursion paired with reduce_step at pole a."""
    z = circle_points(fj.size)
    term1 = fj_prime * (1.0 - np.conj(a) * z) / (z - a)
    term2 = (fj - fj_at_a) * (abs(a) ** 2 - 1.0) / (z - a) ** 2
    return term1 + term2


def reduce_chain(f, order, rows=None):
    """The remainder of f reduced through the poles of `order`, on its N points.

    `rows` are the poles' `pole_rows` at those points, when the caller holds them.
    """
    if rows is None:
        order = np.atleast_1d(disk_points(order, "poles"))
        rows = pole_rows(circle_points(f.size), order)
    for a, row in zip(order, rows):
        f = reduce_step(f, a, row)
    return f


class Objective:
    """The energy of one Signal along a refinement: f z at the 2N points, and
    the 2N-point row sets, final remainder and means of the last tuple.

    `cgd_refine` builds one per call unless its caller passes one, as the
    pipeline's refinement does for its two calls at N' = N.  The one entry
    is keyed on the pole bytes, so a second call at the same tuple reuses
    it and a call at another tuple replaces it.  Its arrays are read-only.
    """

    def __init__(self, signal):
        self.signal = signal
        self._key = self._entry = self._means = None

    @cached_property
    def fine_times_z(self):
        """f (`spectrum`, zero-padded, one inverse FFT) times z on `_doubled_points`."""
        n = self.signal.n_samples
        # scaling by the power of two N is exact: ifft(fft(f), 2N) * 2, bit for bit
        fine = np.fft.ifft(spectrum(self.signal).coeffs, 2 * n) * (2 * n)
        value = np.concatenate([fine[::2], fine[1::2]]) * _doubled_points(n)
        value.setflags(write=False)
        return value

    def evaluate(self, poles):
        """The 2N-point row sets and the final remainder of the tuple with these poles."""
        key = poles.tobytes()
        if key != self._key:
            rows = pole_rows(_doubled_points(self.signal.n_samples), poles)
            # the chain reads the N sample points, the first half of each row
            rest = reduce_chain(self.signal.samples, poles, rows[:, :, :self.signal.n_samples])
            rows.setflags(write=False)
            rest.setflags(write=False)
            self._key, self._entry, self._means = key, (rows, rest), None
        return self._entry

    def pole_means(self, poles):
        """g_l = h_l(a_l) per pole, h_l being f reduced through every pole but a_l.

        g_l is the mean of f z conj(B)/(1 - conj(a_l) z) over the 2N points, B the
        tuple's Blaschke product: conj(B) is the product of the Moebius rows and
        1/(1 - conj(a_l) z) = conj(z w_l) there, so the n means, formed once per
        tuple, are one matrix-vector product with the z w rows, aliasing at max|a|^(2N).
        """
        rows = self.evaluate(poles)[0]
        if self._means is None:
            weight = self.fine_times_z * np.prod(rows[:, 2], axis=0)
            self._means = np.conj(rows[:, 1] @ np.conj(weight)) / weight.size
            self._means.setflags(write=False)
        return self._means


def _objective(f):
    """f if it is an Objective, else a fresh one for the Signal f."""
    return f if isinstance(f, Objective) else Objective(f)


def _finite(value, name):
    """The result, checked at the boundary instead of every stage."""
    if not np.isfinite(value).all():
        raise ArithmeticError(f"{name} is not finite")
    return value


def energy(f, tup):
    """Energy E(a) = sum_j (1-|a_j|^2) |f_j(a_j)|^2 = ||f||^2 - A by telescoping.

    This is the value `cgd_refine` records in its energy trace, bit for bit.
    Its precision is absolute, about eps ||f||^2, not relative to E.
    """
    state = _objective(f)
    return _finite(norm_sq(state.signal) - error_energy(state, tup), "energy")


def error_energy(f, tup):
    """Squared approximation error A = ||f||^2 - E(a) as a remainder norm.

    The Moebius factor is unimodular on the circle, so the discrete norm of
    the final remainder equals the unextracted energy exactly.  Computed from
    the small remainder itself, A keeps its relative precision near an exact
    recovery, where E = ||f||^2 - A keeps only an absolute one.
    """
    rest = _objective(f).evaluate(tup.poles)[1]
    return _finite(float(np.sum(np.abs(rest) ** 2) / rest.size), "error energy")


def energy_gradient(f, tup):
    """gradE_l = -conj(d(-E)/da_l) = conj(conj(g_l) f_n(a_l)) per pole, as an array.

    The result is a complex array with one entry per pole, in tuple order;
    ArithmeticError is raised when an entry is not finite.  Poles may
    repeat: no step divides by a pole difference.

    The branch that reduces through a_l last leaves h_l = M_l f_n + c k_{a_l},
    so its formula conj(h_l(a_l)) (conj(a_l) h_l(a_l) - (1-|a_l|^2) h_l'(a_l))
    reduces to -conj(g_l) f_n(a_l), with g_l = h_l(a_l) (`Objective.pole_means`)
    the inner product of f with the kernel times B/M_l.  Everything is read
    off the Objective's entry, which `error_energy` and `remainder_jacobian`
    also use, and the n values f_n(a_l) (`pole_values`) are one
    matrix-vector product with the N-point halves of the z w rows.  Per
    tuple that is the product conj(B) and two matrix-vector products, with
    no division and, at a tuple already evaluated, no second chain.
    """
    poles, state = tup.poles, _objective(f)
    rows, rest = state.evaluate(poles)
    grad = state.pole_means(poles) * np.conj(pole_values(rest, poles, rows[:, 1, :rest.size]))
    return _finite(grad, "gradient")


def remainder_jacobian(f, tup):
    """The derivatives of the final remainder f_n by each pole's Re and Im, 2n x N.

    Row l is d f_n/d Re a_l and row n + l is d f_n/d Im a_l, at the N sample
    points.  The remainder does not depend on the order of the poles (up to
    the O(max|a|^N) aliasing of the sampled kernel), so each a_l may be taken
    last: f_n = h_l (1 - conj(a_l) z) w_l - c_l w_l, with h_l f reduced
    through the other poles, c_l = s_l m_l, s_l = 1 - |a_l|^2 and
    m_l = mean(h_l z w_l) = g_l/(1 - a_l^N) (`Objective.pole_means`).
    Inverting that stage on the circle gives h_l = (f_n (z - a_l) + c_l)
    conj(z w_l), and with m2_l = mean(z w_l^2 h_l) the Wirtinger derivatives are

        d f_n/d a_l       = h_l (1 - conj(a_l) z) w_l - (s_l m2_l - conj(a_l) m_l) w_l - c_l w_l^2
        d f_n/d conj(a_l) = a_l m_l w_l - h_l z w_l,

    so d/d Re = d/da + d/dconj(a) and d/d Im = i (d/da - d/dconj(a)).  All
    of it is read off the Objective's entry: at a tuple already evaluated it
    runs no chain and forms no second conj(B).  Re(conj(J) f_n)/N, half the
    gradient of A = mean|f_n|^2 on [Re a; Im a], is then -[Re gradE; Im gradE]
    (`energy_gradient`).
    """
    poles, state = tup.poles, _objective(f)
    rows, rest = state.evaluate(poles)
    n = rest.size
    w, zw, moebius = (rows[:, k, :n] for k in range(3))
    z = _doubled_points(n)[:n]
    s = 1.0 - np.abs(poles) ** 2
    m = state.pole_means(poles) / (1.0 - poles**n)
    c = s * m
    h = (rest * z - poles[:, None] * rest + c[:, None]) * np.conj(zw)
    m2 = np.sum(zw * w * h, axis=1) / n
    d_a = (h * moebius - c[:, None] * w - (s * m2 - np.conj(poles) * m)[:, None]) * w
    d_conj = (poles * m)[:, None] * w - h * zw
    return _finite(np.concatenate([d_a + d_conj, 1j * (d_a - d_conj)]), "jacobian")
