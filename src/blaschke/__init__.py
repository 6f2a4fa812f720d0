"""Best n-Blaschke-form approximation in the Hardy space H^2 on the unit disk.

Two-stage pipeline: a cyclic coordinate search over a polar grid (with
FFT-shared kernel inner products) seeds a Levenberg-Marquardt refinement
of the reduction remainder, which moves the pole tuple off the grid.
"""

from .cgd import CgdConfig, CgdReport, CgdStatus, cgd_refine
from .feval import PolarGrid, eval_interior, feval_table, ring_bounds
from .hardy import (
    BlaschkeModel,
    PoleTuple,
    Signal,
    Spectrum,
    circle_points,
    norm_sq,
    project,
    spectrum,
    synthesize,
)
from .pipeline import (
    RecoveryResult,
    RunConfig,
    cafd_cgd,
    cafd_cgd_result,
    l2_relative_error,
    random_blaschke_form,
    rect_cafd,
    run_benchmark,
    tuple_distance,
)
from .reduction import energy, energy_gradient, reduce_step
from .search import (
    RectGridConfig,
    SearchConfig,
    SearchNonConvergence,
    its_search,
    rect_cafd_search,
)

__version__ = "0.1.0"
