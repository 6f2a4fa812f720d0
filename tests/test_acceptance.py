"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The printed lines bypass pytest's capture so they appear in the run log.
"""

import time

import numpy as np

from blaschke import (
    BlaschkeModel,
    PolarGrid,
    PoleTuple,
    Signal,
    Spectrum,
    feval_table,
    spectrum,
    synthesize,
    tuple_distance,
)
from blaschke.cgd import CgdStatus
from blaschke.pipeline import RunConfig, cafd_cgd_result
from blaschke.reduction import energy, energy_gradient
from blaschke.search import RectGridConfig, SearchConfig, rect_cafd_search
from blaschke.targets import builtin_signal, builtin_truth

from conftest import (
    monomial_signal,
    quadrature_kernel_inner_many,
    random_smooth_signal,
    sample_gram,
    synthesized_columns,
)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_disk_tuple(rng, n, radius=0.9, gap=1e-3):
    poles = []
    while len(poles) < n:
        w = rng.uniform(-radius, radius) + 1j * rng.uniform(-radius, radius)
        if abs(w) <= radius and all(abs(w - p) > gap for p in poles):
            poles.append(w)
    return PoleTuple(poles)


def test_criterion_01_orthonormality(capsys):
    # 50 random tuples, n <= 6, |a| <= 0.9, N = 1024; runtime < 10 s.  The
    # columns are the ones `synthesize` sums, at the tuple's band limit M and
    # moved to N by one FFT; the Gram matrix is of sample means
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        gram = sample_gram(synthesized_columns(random_disk_tuple(rng, n), 1024))
        worst = max(worst, float(np.max(np.abs(gram - np.eye(n)))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(capsys, 1, ok,
           f"max |<B_j,B_k> - delta_jk| = {worst:.2e} (tol 1e-8), {elapsed:.1f}s")


def test_criterion_02_feval_oracle_equivalence(capsys):
    # 10 random smooth signals, M = 16, N = 64, vs trapezoid quadrature; < 5 s
    rng = np.random.default_rng(202)
    grid = PolarGrid(16, 64)
    nodes = grid.nodes()
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        f = random_smooth_signal(rng, 64)
        table = feval_table(f, grid)
        want = quadrature_kernel_inner_many(spectrum(f).coeffs, nodes)
        worst = max(worst, float(np.max(np.abs(table.ravel() - want))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(capsys, 2, ok,
           f"max |table - quadrature| = {worst:.2e} (tol 1e-9), {elapsed:.1f}s")


def test_criterion_03_gradient_finite_differences(capsys):
    # 20 random (target, tuple) pairs, n in {2,3,4}, central FD step 1e-6
    rng = np.random.default_rng(303)
    h = 1e-6
    worst = 0.0
    for trial in range(20):
        n = 2 + trial % 3
        truth = random_disk_tuple(rng, n, radius=0.8, gap=0.05)
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = synthesize(BlaschkeModel(truth, coeffs), 256)
        at = random_disk_tuple(rng, n, radius=0.8, gap=0.05)
        d_minus_e = -np.conj(energy_gradient(f, at))
        for ell in range(n):
            for step, want in (
                (h, -2.0 * np.real(d_minus_e[ell])),
                (1j * h, 2.0 * np.imag(d_minus_e[ell])),
            ):
                up, dn = at.poles.copy(), at.poles.copy()
                up[ell] += step
                dn[ell] -= step
                fd = (energy(f, PoleTuple(up)) - energy(f, PoleTuple(dn))) / (2 * h)
                worst = max(worst, abs(fd - want) / max(1.0, abs(want)))
    ok = worst <= 1e-5
    report(capsys, 3, ok, f"max FD relative error = {worst:.2e} (tol 1e-5)")


def test_criterion_04_monomial_pipeline(capsys):
    # f = tau^k, k in {1,2,5}: pipeline at n = 1 finds |a| = sqrt(k/(k+1))
    worst = 0.0
    for k in (1, 2, 5):
        f = monomial_signal(k, 1024)
        res = cafd_cgd_result(f, RunConfig(degree=1))
        want = np.sqrt(k / (k + 1.0))
        worst = max(worst, abs(abs(res.model.tuple.poles[0]) - want))
    ok = worst <= 1e-6
    report(capsys, 4, ok, f"max | |a| - sqrt(k/(k+1)) | = {worst:.2e} (tol 1e-6)")


def _recovery_run(name, angular=128):
    f = builtin_signal(name, 1024)
    truth = builtin_truth(name)
    cfg = RunConfig(
        degree=truth.degree,
        search=SearchConfig(radial=100, angular=angular),
    )
    return cafd_cgd_result(f, cfg, truth=truth)


def test_criterion_05_five_pole_recovery(capsys):
    t0 = time.perf_counter()
    res = _recovery_run("ex5_3")
    elapsed = time.perf_counter() - t0
    ok = (
        res.tuple_distance <= 5e-3
        and res.l2_relative_error <= 5e-4
        and elapsed < 60.0
    )
    report(capsys, 5, ok,
           f"tuple distance {res.tuple_distance:.2e} (tol 5e-3), "
           f"L2 rel error {res.l2_relative_error:.2e} (tol 5e-4), {elapsed:.1f}s")


def test_criterion_06_on_grid_recovery(capsys):
    res = _recovery_run("ex5_5")
    f = builtin_signal("ex5_5", 1024)
    truth = builtin_truth("ex5_5")
    rect = rect_cafd_search(f, 4, RectGridConfig(gap=0.01))
    rect_dist = tuple_distance(rect, truth)
    ok = res.tuple_distance <= 1e-3 and rect_dist == 0.0
    report(capsys, 6, ok,
           f"polar tuple distance {res.tuple_distance:.2e} (tol 1e-3), "
           f"rectangular-grid distance {rect_dist} (exact 0 required)")


def test_criterion_07_clustered_pole_recovery(capsys):
    res = _recovery_run("ex5_6")
    ok = res.tuple_distance <= 0.01 and res.l2_relative_error <= 5e-4
    report(capsys, 7, ok,
           f"tuple distance {res.tuple_distance:.2e} (tol 1e-2), "
           f"L2 rel error {res.l2_relative_error:.2e} (tol 5e-4)")


def test_criterion_08_function_approximation(capsys):
    tols = {"ex5_1_f1": 5e-4, "ex5_1_f2": 5e-3, "ex5_1_f3": 5e-3}
    errs = {}
    ok = True
    for name, tol in tols.items():
        f = builtin_signal(name, 1024)
        res = cafd_cgd_result(f, RunConfig(degree=6))
        errs[name] = res.l2_relative_error
        ok = ok and res.l2_relative_error <= tol
    detail = ", ".join(
        f"{n.split('_')[-1]}: {e:.2e} (tol {tols[n]:.0e})" for n, e in errs.items()
    )
    report(capsys, 8, ok, f"degree-6 L2 rel errors {detail}")


def _min_cycle_times(fns, reps, rounds):
    """Interleaved minimum-of-rounds timing to suppress clock-speed drift."""
    best = [np.inf] * len(fns)
    for _ in range(rounds):
        for i, (fn, rep) in enumerate(zip(fns, reps)):
            t0 = time.perf_counter()
            for _ in range(rep):
                fn()
            best[i] = min(best[i], (time.perf_counter() - t0) / rep)
    return best


def test_criterion_09_complexity_scaling(capsys):
    # wall time of feval_table at most ~2.2x per doubling of M at N = 1024
    rng = np.random.default_rng(909)
    coeffs = (rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
    s = Spectrum(coeffs * 0.99 ** np.arange(1024))
    sizes = [64, 128, 256, 512]
    grids = [PolarGrid(m, 1024) for m in sizes]
    fns = [lambda g=g: feval_table(s, g) for g in grids]
    reps = [512 // m for m in sizes]
    ratios = None
    for _ in range(5):  # timing in a shared environment is noisy; retry
        times = _min_cycle_times(fns, reps, rounds=30)
        ratios = [times[i + 1] / times[i] for i in range(3)]
        if max(ratios) <= 2.2:
            break
    ok = max(ratios) <= 2.2

    # relative ordering: the shared-FFT table beats a direct per-node scan
    grid = PolarGrid(100, 256)
    nodes = grid.nodes()
    weight = np.sqrt(1.0 - np.abs(nodes) ** 2)
    sig = Signal(np.fft.ifft(s.coeffs) * 1024)

    def direct_scan():
        return weight * np.abs(
            np.polynomial.polynomial.polyval(nodes, spectrum(sig).coeffs)
        )

    t_fast, t_direct = _min_cycle_times(
        [lambda: feval_table(sig, grid), direct_scan], [4, 1], rounds=10
    )
    ok = ok and t_fast < t_direct
    report(capsys, 9, ok,
           f"per-doubling ratios {[f'{r:.2f}' for r in ratios]} (tol 2.2); "
           f"fast scan {t_fast * 1e3:.2f}ms vs direct {t_direct * 1e3:.2f}ms")


def test_criterion_10_near_boundary_degradation(capsys):
    # the near-boundary 4-pole target must finish with a valid model and a
    # converged or line-search-stall status; accuracy is not a target here
    f = builtin_signal("ex5_4", 1024)
    truth = builtin_truth("ex5_4")
    cfg = RunConfig(
        degree=4,
        search=SearchConfig(radial=100, angular=128),
    )
    res = cafd_cgd_result(f, cfg, truth=truth)
    status = res.cgd_report.status
    ok = (
        status in (CgdStatus.CONVERGED, CgdStatus.LINE_SEARCH_STALL)
        and res.model.residual_error >= 0.0
        and np.all(np.isfinite(res.model.coeffs))
        and np.all(np.abs(res.model.tuple.poles) < 1.0)
    )
    report(capsys, 10, ok,
           f"status {status.value}, L2 rel error {res.l2_relative_error:.2e}, "
           f"tuple distance {res.tuple_distance:.2e} (properties only)")
