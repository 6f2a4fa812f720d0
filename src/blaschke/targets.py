"""Builtin targets: the paper's Section 5 functions and fixed Blaschke forms.

A target is a name in `BUILTIN_FUNCTIONS` (a closed form sampled on the
circle) or in `BUILTIN_FORMS` (a pole tuple and coefficients, synthesized),
with its default degree in `BUILTIN_DEGREES`; `random_blaschke_form` draws
the random forms of the recovery batches.
"""

import numpy as np

from .hardy import BlaschkeModel, PoleTuple, Signal, circle_points, draw_separated, synthesize

__all__ = ["random_blaschke_form", "builtin_signal", "builtin_truth",
           "BUILTIN_FUNCTIONS", "BUILTIN_FORMS"]


# circle samples of a builtin target unless the caller asks for another count
DEFAULT_SAMPLES = 1024

# closed-form targets of the approximation suites, evaluated at tau on the circle
BUILTIN_FUNCTIONS = {
    "ex5_1_f1": lambda t: 1.0 / (2.0 + t**4),
    "ex5_1_f2": lambda t: np.exp(t**2),
    "ex5_1_f3": lambda t: np.log(2.0 + t**2),
    "ex5_2_f1": lambda t: 1.0 + t**2 + t**4 + 1.0 / (3.0 + t**2),
    "ex5_2_f2": lambda t: np.cos(t**2),
    "ex5_2_f3": lambda t: np.cos(6.0 * t**2) / (2.0 + t**2),
}

# fixed (poles, coefficients) pairs of the recovery suites
BUILTIN_FORMS = {
    "ex5_3": (
        [-0.475 + 0.305j, -0.180 + 0.715j, 0.260 - 0.730j,
         0.540 + 0.360j, -0.485 - 0.215j],
        [-0.5861 - 0.04445j, 0.2428 - 0.6878j, 0.4423 - 0.3309j,
         -0.2703 - 0.8217j, -0.8085 + 0.3774j],
    ),
    "ex5_4": (
        [-0.4900 - 0.8000j, 0.3100 + 0.1400j, -0.9400 - 0.2900j,
         0.2300 - 0.6900j],
        [1.0470 + 0.55587j, -0.2269 - 1.1203j, -0.1625 - 1.5327j,
         0.6901 - 1.0979j],
    ),
    "ex5_5": (
        [0.6800 + 0.5200j, 0.3900 + 0.8100j, -0.1300 - 0.8700j,
         0.5500 - 0.1000j],
        [0.1440 + 0.5197j, -1.6387 - 0.0142j, -0.7601 - 1.1555j,
         -0.8188 - 0.0095j],
    ),
    "ex5_6": (
        [-0.1800 + 0.7700j, -0.0200 - 0.1800j, 0.1000 + 0.2400j,
         0.1800 - 0.5300j],
        [0.1097 + 0.4754j, 1.1287 + 1.1741j, -0.2900 + 0.1269j,
         1.2616 - 0.6568j],
    ),
}

# default degree per builtin target; a form's is the size of its tuple
BUILTIN_DEGREES = {
    "ex5_1_f1": 6, "ex5_1_f2": 6, "ex5_1_f3": 6,
    "ex5_2_f1": 10, "ex5_2_f2": 10, "ex5_2_f3": 30,
    **{name: len(poles) for name, (poles, _) in BUILTIN_FORMS.items()},
}


def builtin_signal(name, n_samples=DEFAULT_SAMPLES):
    """Sample a builtin target at n equidistant circle points."""
    tau = circle_points(n_samples)
    if name in BUILTIN_FUNCTIONS:
        return Signal(BUILTIN_FUNCTIONS[name](tau))
    if name in BUILTIN_FORMS:
        poles, coeffs = BUILTIN_FORMS[name]
        return synthesize(BlaschkeModel(PoleTuple(poles), coeffs), n_samples)
    raise KeyError(f"unknown builtin target {name!r}")


def builtin_truth(name):
    """Ground-truth pole tuple of a builtin Blaschke form, else None."""
    if name in BUILTIN_FORMS:
        return PoleTuple(BUILTIN_FORMS[name][0])
    return None


def random_blaschke_form(n, seed):
    """Random pole tuple (|a| < 0.9, pairwise gap >= 0.05) and coefficients.

    Coefficients have real and imaginary parts uniform in [-1, 1].
    """
    rng = np.random.default_rng(seed)
    poles = draw_separated(rng, n, 0.9, 0.05, 10000)
    coeffs = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    return PoleTuple(poles), coeffs
