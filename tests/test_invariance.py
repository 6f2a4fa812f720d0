"""The answer's invariances, each stated once: rotation f(wz), conjugation
conj(f(conj z)), amplitude lambda f and pole order.

A statement runs one layer of the program on a problem, f's samples and
the poles the layer starts from, and again on the problem moved by a
transform; `check` asserts that each output of the second run is the
first run's output moved the same way, within the statement's bound.  The
rows of STATEMENTS take fixed problems; the kernel's statements, which
draw their problems, run through the same `check` in test_reduction.py.
"""

from typing import Callable, NamedTuple

import numpy as np
import pytest

from blaschke import PoleTuple, Signal, norm_sq, project
from blaschke.cgd import CgdConfig, cgd_refine
from blaschke.pipeline import RunConfig, _refine, cafd_cgd_result, tuple_distance
from blaschke.search import SearchConfig, its_search
from blaschke.targets import BUILTIN_DEGREES, builtin_signal

from conftest import SEARCH_TUPLES, random_smooth_signal


class Move(NamedTuple):
    """A transform: of f's samples, of the poles, and its factor on an energy."""

    samples: Callable
    poles: Callable
    scale: float = 1.0


def rotation(k, a):
    """f(wz), w = exp(2 pi i k / a): the samples rolled by -(N/a) k, the poles turned by conj(w)"""
    return Move(lambda f: np.roll(f, -(f.size // a) * k),
                lambda p: p * np.exp(-2j * np.pi * k / a))


# conj(f(conj z)): at the sample points, conj(f) read backwards from z = 1
MIRROR = Move(lambda f: np.conj(np.roll(f[::-1], 1)), np.conj)


def amplitude(lam):
    return Move(lambda f: lam * f, lambda p: p, abs(lam) ** 2)


def order(head):
    """The poles p[head] first, then the others in their order."""
    return Move(lambda f: f, lambda p: np.concatenate([p[head], np.delete(p, head)]))


REVERSE = Move(lambda f: f, lambda p: p[::-1])


# per output: how it moves with the problem, and the gap between the moved
# first output and the second; any other output is a scalar no move changes
OUTPUTS = {
    # a tuple entry by entry, and as a set
    "poles": (lambda m, p: m.poles(p), lambda a, b: np.max(np.abs(a - b))),
    "tuple": (lambda m, p: m.poles(p), lambda a, b: tuple_distance(PoleTuple(a), PoleTuple(b))),
    # the gradient of E, relative to its largest entry
    "gradient": (lambda m, g: m.scale * m.poles(g),
                 lambda a, b: np.max(np.abs(a - b)) / np.max(np.abs(a))),
    "residual": (lambda m, e: m.scale * e, lambda a, b: abs(a - b)),
}
SCALAR = (lambda m, x: x, lambda a, b: abs(a - b))
# the bound of an output that must not change by a bit
EXACT = "exact"


def check(run, f, poles, moves, bounds):
    """Assert that run(move(problem)) is move(run(problem)) for each move, within `bounds`."""
    base = run(f, poles)
    for move in moves:
        out = run(move.samples(f), None if poles is None else move.poles(poles))
        for name, bound in bounds.items():
            moved, gap = OUTPUTS.get(name, SCALAR)
            want = moved(move, base[name])
            if bound == EXACT:
                assert np.array_equal(out[name], want), name
            else:
                assert gap(want, out[name]) <= bound, name


# each layer of STATEMENTS builds its problem from a case: (run, f's
# samples, start poles or None)
def step(name):
    """One Levenberg-Marquardt step from a builtin form's fixed search tuple."""
    def run(f, poles):
        report = cgd_refine(Signal(f), PoleTuple(poles), CgdConfig(max_iters=1))
        return {"poles": report.tuple.poles}

    return run, builtin_signal(name, 1024).samples, np.array(SEARCH_TUPLES[name])


def residual(seed):
    """`project`'s residual on a random smooth signal."""
    f = random_smooth_signal(np.random.default_rng(seed), 256).samples
    return (lambda g, poles: {"residual": project(Signal(g), PoleTuple(poles)).residual_error},
            f, np.array([0.4, -0.3j, 0.2 + 0.5j]))


def refine(name):
    """The refinement from a builtin form's fixed search tuple, projected."""
    def run(f, poles):
        f = Signal(f)
        report, _ = _refine(f, PoleTuple(poles), CgdConfig())
        return {"tuple": report.tuple.poles,
                "l2": np.sqrt(project(f, report.tuple).residual_error / norm_sq(f)),
                "iterations": report.iterations, "status": report.status}

    return run, builtin_signal(name, 1024).samples, np.array(SEARCH_TUPLES[name])


def search(name, angular, n_samples=1024, radial=100):
    n, cfg = BUILTIN_DEGREES[name], SearchConfig(radial, angular)
    return (lambda f, _: {"tuple": its_search(Signal(f), n, cfg).poles},
            builtin_signal(name, n_samples).samples, None)


def pipeline(name):
    cfg = RunConfig(BUILTIN_DEGREES[name], SearchConfig(angular=128))

    def run(f, _):
        res = cafd_cgd_result(Signal(f), cfg)
        return {"tuple": res.model.tuple.poles, "l2": res.l2_relative_error,
                "iterations": res.cgd_report.iterations, "status": res.cgd_report.status}

    return run, builtin_signal(name, 1024).samples, None


# a rotation by k/128 maps the nodes of a grid of 128 or 256 angles onto nodes
MOVES = {
    "rotation": [rotation(k, 128) for k in (1, 5, 32)],
    "mirror": [MIRROR],
    "amplitude": [amplitude(1e-4), amplitude(1e-6)],
    "order": [order([2, 0, 1]), REVERSE],
}
FORMS = [("ex5_3",), ("ex5_4",), ("ex5_5",), ("ex5_6",)]
PIPELINE = {"tuple": 1e-14, "l2": 1e-13, "iterations": EXACT, "status": EXACT}

# layer, transform, bounds per output, cases
STATEMENTS = [
    # the damping gives each pole one scale on Re and Im, so it turns with
    # the poles; Marquardt's plain diagonal would not
    (step, "rotation", {"poles": 1e-15}, [("ex5_3",), ("ex5_5",)]),
    (step, "mirror", {"poles": 1e-15}, [("ex5_3",), ("ex5_5",)]),
    (residual, "order", {"residual": 1e-12}, [(12345,)]),
    # the search's threshold is an energy relative to ||f||^2, so every
    # accept decision, and the tuple, is the same
    (search, "amplitude", {"tuple": EXACT}, [("ex5_3", 64, 256, 20)]),
    (search, "mirror", {"tuple": 1e-14},
     [("ex5_3", 128), ("ex5_5", 128), ("ex5_2_f2", 256), ("ex5_1_f3", 256)]),
    (refine, "order", PIPELINE, [("ex5_3",), ("ex5_5",)]),
    # off the model class the refined tuples of two orders lie 5.5e-14 apart
    (refine, "order", {"l2": 1e-13, "iterations": EXACT, "status": EXACT}, [("ex5_1_f3",)]),
    (pipeline, "rotation", PIPELINE, FORMS),
    (pipeline, "mirror", PIPELINE, FORMS),
]


@pytest.mark.parametrize("layer, transform, bounds, case", [
    pytest.param(layer, transform, bounds, case,
                 id="-".join(map(str, (layer.__name__, transform) + case)))
    for layer, transform, bounds, cases in STATEMENTS for case in cases
])
def test_statement(layer, transform, bounds, case):
    check(*layer(*case), MOVES[transform], bounds)

