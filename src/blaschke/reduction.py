"""Reduced remainders, the energy function, and its complex gradient.

Each reduction step extracts the e_a component from the current remainder
and divides out the Moebius factor (z - a)/(1 - conj(a) z); on the circle
this factor is unimodular, so the discrete norm telescopes exactly.  The
energy of a pole tuple is E(a) = sum_j (1-|a_j|^2) |f_j(a_j)|^2.  The
remainder does not depend on the order of the poles, so its Wirtinger
derivative has the closed form d(-E)/da_l = -conj(g_l) f_n(a_l), with f_n
the final remainder of one chain and g_l = mean(f conj(B) z/(1 - conj(a_l) z))
over the circle, B being the tuple's Blaschke product.  `energy_gradient`
returns the ascent direction gradE_l = -conj(d(-E)/da_l) = g_l conj(f_n(a_l))
as a plain complex array, one entry per pole, the step direction of the
refinement a <- a + s gradE.

The kernel works on raw sample arrays; only `energy`, `error_energy` and
`energy_gradient` take a `Signal` and a `PoleTuple`, whose poles they do not
test again.  The raw-array entry points `reduce_chain` and `series_value`
(when it builds its own row) test theirs with `hardy.disk_points`.  There is
one reduction loop, `_chain`, and one result, an `Evaluation`: the reciprocal rows
w = 1/(z - a), one per pole, the stage values f_j(a_j) and the final
remainder f_n.  A stage makes no division: the value
f_j(a_j) = (1 - a^N) mean(f_j z w) (`series_value`, an O(N) Parseval mean
with no FFT) and the step (f_j (1 - conj(a) z) - c) w (`reduce_step`) are
products with the pole's row.  `reduce_chain` returns the evaluation with
N-point rows.  For a `PoleTuple` the rows are taken at the 2N circle points,
ordered as the N sample points and then the N midpoints (the even samples of
the 2N points are the N points bit for bit).  The chain reads the first half
of each row, and the gradient's means over all 2N points read the whole row,
since on the circle 1/(1 - conj(a) z) = conj(z w) and the Moebius factor is
(1 - conj(a) z) w: no further division.  That evaluation is memoized on the
immutable `Signal` in a single entry keyed on the pole bytes, so
`energy_gradient` at a tuple that `error_energy` just evaluated, as the
refinement's accepted line-search point, runs no second chain.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .hardy import circle_points, disk_points

__all__ = [
    "Evaluation",
    "series_value",
    "reduce_step",
    "reduce_chain",
    "energy",
    "error_energy",
    "energy_gradient",
]

class Evaluation(NamedTuple):
    """One chain: the rows 1/(z - a), the stage values f_j(a_j), the final remainder.

    The rows are at the N sample points (`reduce_chain`) or at the 2N
    `_doubled_points` (`_evaluate`); values[j] is the remainder after the
    first j poles, taken at pole j + 1.
    """

    rows: np.ndarray
    values: np.ndarray
    rest: np.ndarray


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


def series_value(f, a, recip=None):
    """Truncated series value f(a) = sum_k f_hat(k) a^k at a pole |a| < 1.

    By Parseval <f, e_a> = sqrt(1-|a|^2) * mean(f * z/(z - a)) over the circle
    points z, and the sampled kernel's aliased coefficients give <f, e_a> =
    sqrt(1-|a|^2) * f(a) / (1 - a^N); so f(a) = mean(f * z * w) * (1 - a^N)
    with w = 1/(z - a).  `recip` is that row at the points of f, when the
    caller already holds it.
    """
    a = complex(a)
    z = circle_points(f.size)
    if recip is None:
        recip = 1.0 / (z - disk_points(a, "pole"))
    return complex((f * z * recip).sum()) / f.size * (1.0 - a**f.size)


def reduce_step(fj, a, fj_at_a, recip):
    """One reduction: extract the e_a component and divide out the Moebius factor.

    (f - <f, e_a> e_a) (1 - conj(a) z)/(z - a), with <f, e_a> e_a(z) =
    f(a) (1-|a|^2) / ((1 - a^N)(1 - conj(a) z)) written out, is
    (f (1 - conj(a) z) - c) w for the row w = 1/(z - a) at the points of f.
    """
    z = circle_points(fj.size)
    extracted = fj_at_a * (1.0 - abs(a) ** 2) / (1.0 - a**fj.size)
    return (fj * (1.0 - np.conj(a) * z) - extracted) * recip


# the solver makes no derivative step; perfbench/tracing.py CALL_SITES looks this up by name
def derivative_reduce_step(fj, fj_prime, a, fj_at_a):
    """Remainder-derivative recursion paired with reduce_step at pole a."""
    z = circle_points(fj.size)
    term1 = fj_prime * (1.0 - np.conj(a) * z) / (z - a)
    term2 = (fj - fj_at_a) * (abs(a) ** 2 - 1.0) / (z - a) ** 2
    return term1 + term2


def reduce_chain(f, order):
    """Reduce f through the poles of `order`: the `Evaluation` on its N points."""
    order = np.atleast_1d(disk_points(order, "poles"))
    return _chain(f, order, 1.0 / (circle_points(f.size) - order[:, None]))


def _chain(f, order, rows):
    """The reduction loop; each row starts with its pole's 1/(z - a) at the points of f."""
    n = f.size
    values = []
    for a, w in zip(order, rows):
        values.append(series_value(f, a, w[:n]))
        f = reduce_step(f, a, values[-1], w[:n])
    return Evaluation(rows, np.array(values, dtype=complex), f)


def _evaluate(f, poles):
    """The evaluation of a tuple on a Signal, memoized in one entry.

    The entry is keyed on the pole bytes and kept on the (immutable) Signal,
    so a second call at the same tuple reuses the chain and a call at
    another tuple replaces it.  Its arrays are read-only.
    """
    key = poles.tobytes()
    cached = getattr(f, "_evaluation_cache", None)
    if cached is None or cached[0] != key:
        rows = 1.0 / (_doubled_points(f.n_samples) - poles[:, None])
        evaluation = _chain(f.samples, poles, rows)
        for array in evaluation:
            array.setflags(write=False)
        cached = (key, evaluation)
        object.__setattr__(f, "_evaluation_cache", cached)
    return cached[1]


def _fine_times_z(f):
    """f resampled to 2N points (one FFT pair) times z, on `_doubled_points`.

    Memoized on the (immutable) Signal, like `hardy.spectrum`.
    """
    cached = getattr(f, "_fine_times_z_cache", None)
    if cached is None:
        n = f.n_samples
        fine = np.fft.ifft(np.fft.fft(f.samples), 2 * n) * 2
        cached = np.concatenate([fine[::2], fine[1::2]]) * _doubled_points(n)
        cached.setflags(write=False)
        object.__setattr__(f, "_fine_times_z_cache", cached)
    return cached


def _stage_energy(poles, values):
    """sum_j (1-|a_j|^2) |f_j(a_j)|^2 over stage values in tuple order."""
    return sum((1.0 - abs(a) ** 2) * abs(v) ** 2 for a, v in zip(poles, values))


def _finite(value, name):
    """The result, checked at the boundary instead of every stage."""
    if not np.all(np.isfinite(value)):
        raise ArithmeticError(f"{name} is not finite")
    return value


def energy(f, tup):
    """Energy E(a) = sum_j (1-|a_j|^2) |f_j(a_j)|^2 via one reduction pass."""
    values = _evaluate(f, tup.poles).values
    return _finite(_stage_energy(tup.poles, values), "energy")


def error_energy(f, tup):
    """Squared approximation error A = ||f||^2 - E(a) as a remainder norm.

    The Moebius factor is unimodular on the circle, so the discrete norm of
    the final remainder equals the unextracted energy exactly.  Near an
    exact recovery this is far better conditioned than ||f||^2 - energy():
    A is computed from the small remainder itself instead of as the
    difference of two order-one quantities.
    """
    rest = _evaluate(f, tup.poles).rest
    return _finite(float(np.sum(np.abs(rest) ** 2) / rest.size), "error energy")


def energy_gradient(f, tup):
    """gradE_l = -conj(d(-E)/da_l) = conj(conj(g_l) f_n(a_l)) per pole, as an array.

    The result is a complex array with one entry per pole, in tuple order;
    ArithmeticError is raised when an entry is not finite.  The energy is
    not summed here: `energy` reads it off the same memoized evaluation.
    The poles are not tested for separation here: a PoleTuple is separated.

    The branch that reduces through a_l last leaves h_l = M_l f_n + c k_{a_l},
    so its formula conj(h_l(a_l)) (conj(a_l) h_l(a_l) - (1-|a_l|^2) h_l'(a_l))
    reduces to -conj(g_l) f_n(a_l), with g_l = h_l(a_l) the inner product of
    f with the kernel times B/M_l.  The means for g_l run on 2N points, where
    conj(B) = prod (1 - conj(a_j) z) w_j aliases at max|a|^(2N), not
    max|a|^N.  Everything is read off the tuple's memoized evaluation, the
    one `error_energy` also uses: with w_l = 1/(z - a_l) at the 2N points,
    1/(1 - conj(a_l) z) = conj(z w_l) there, so the n means g_l are one
    matrix-vector product with the rows, and the n values f_n(a_l) are
    another with the rows' N-point halves.  Per call that is the Moebius
    product conj(B) over the n rows and the two products, with no division
    and, at a tuple already evaluated, no second chain.
    """
    poles = tup.poles
    ev = _evaluate(f, poles)
    n = f.n_samples
    z2 = _doubled_points(n)
    conj_b = np.prod((1.0 - np.conj(poles)[:, None] * z2) * ev.rows, axis=0)
    weight = _fine_times_z(f) * conj_b
    # conj(g_l) = mean(conj(weight) z w_l) over the 2N points
    conj_g = ev.rows @ (np.conj(weight) * z2) / (2 * n)
    rest_at = (1.0 - poles**n) * (ev.rows[:, :n] @ (ev.rest * circle_points(n))) / n
    return _finite(np.conj(conj_g * rest_at), "gradient")
