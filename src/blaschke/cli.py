"""Command-line interface: approximate, recover, synthesize, benchmark, eval-grid.

Signals travel as CSV (columns index,re,im), models as JSON with full
double precision.  Exit codes: 0 success, 2 validation error, 3 search
non-convergence, 4 line-search stall, 5 iteration cap (for 4 and 5 the model
is still written).
"""

import csv
import json
import sys

import click

from .cgd import CgdConfig, CgdStatus
from .feval import build_polar_grid, feval_table
from .hardy import BlaschkeModel, PoleTuple, Signal, synthesize
from .pipeline import (
    BENCHMARK_COLUMNS,
    DEFAULT_SAMPLES,
    RunConfig,
    builtin_signal,
    cafd_cgd_result,
    run_benchmark,
    tuple_distance,
)
from .search import SearchConfig, SearchNonConvergence

EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_STALL = 4
EXIT_ITERATION_CAP = 5


def read_signal_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = sorted(reader, key=lambda r: int(r["index"]))
    if [int(r["index"]) for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: sample indices must be exactly 0..N-1")
    values = [float(r["re"]) + 1j * float(r["im"]) for r in rows]
    return Signal(values)


def write_signal_csv(path, signal):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "re", "im"])
        for j, v in enumerate(signal.samples):
            writer.writerow([j, repr(float(v.real)), repr(float(v.imag))])


def _complex_list(values):
    return [{"re": v.real, "im": v.imag} for v in values]


def write_model_json(path, model):
    payload = {
        "degree": model.degree,
        "poles": _complex_list(model.tuple.poles),
        "coeffs": _complex_list(model.coeffs),
        "residual_error": model.residual_error,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_model_json(path):
    with open(path) as fh:
        payload = json.load(fh)
    poles = [c["re"] + 1j * c["im"] for c in payload["poles"]]
    coeffs = [c["re"] + 1j * c["im"] for c in payload["coeffs"]]
    return BlaschkeModel(
        PoleTuple(poles), coeffs, payload.get("residual_error", 0.0)
    )


def read_tuple_json(path):
    with open(path) as fh:
        payload = json.load(fh)
    entries = payload["poles"] if isinstance(payload, dict) else payload
    return PoleTuple([c["re"] + 1j * c["im"] for c in entries])


def _load_input(input_path, builtin, samples):
    if (input_path is None) == (builtin is None):
        raise click.UsageError("exactly one of --input / --builtin is required")
    if input_path is not None:
        return read_signal_csv(input_path)
    return builtin_signal(builtin, samples)


def _run_options(fn):
    for deco in reversed([
        click.option("--input", "input_path", type=click.Path(exists=True)),
        click.option("--builtin", type=str, default=None),
        click.option("--degree", "-n", type=int, required=True),
        click.option("--samples", default=DEFAULT_SAMPLES, show_default=True),
        click.option("--radial", default=SearchConfig.radial, show_default=True),
        click.option("--angular", default=SearchConfig.angular, show_default=True),
        click.option("--beta", default=CgdConfig.beta, show_default=True),
        click.option("--trust", default=CgdConfig.neighbor_radius, show_default=True),
        click.option("--tol", default=CgdConfig.tol, show_default=True),
        click.option("--eta-rel", default=SearchConfig.eta_rel, show_default=True),
        click.option("--seed", default=SearchConfig.seed, show_default=True),
        click.option("--out", "out_path", type=click.Path(), required=True),
    ]):
        fn = deco(fn)
    return fn


def _approximate(input_path, builtin, degree, samples, radial, angular, beta,
                 trust, tol, eta_rel, seed, out_path, truth_path=None):
    f = _load_input(input_path, builtin, samples)
    cfg = RunConfig(
        degree=degree,
        search=SearchConfig(radial=radial, angular=angular, eta_rel=eta_rel, seed=seed),
        cgd=CgdConfig(beta=beta, neighbor_radius=trust, tol=tol),
    )
    truth = read_tuple_json(truth_path) if truth_path else None
    result = cafd_cgd_result(f, cfg, truth=truth)
    write_model_json(out_path, result.model)
    click.echo(f"l2_relative_error: {result.l2_relative_error:.6e}")
    if result.tuple_distance is not None:
        click.echo(f"tuple_distance: {result.tuple_distance:.6e}")
    click.echo(f"status: {result.cgd_report.status.value}")
    if result.cgd_report.status is CgdStatus.LINE_SEARCH_STALL:
        sys.exit(EXIT_STALL)
    if result.cgd_report.status is CgdStatus.ITERATION_CAP:
        sys.exit(EXIT_ITERATION_CAP)


@click.group()
def main():
    """Best n-Blaschke-form approximation in the Hardy space H^2."""


@main.command()
@_run_options
def approximate(**kwargs):
    """Approximate a signal by an n-Blaschke form and write the model."""
    _approximate(**kwargs)


@main.command()
@_run_options
@click.option("--truth", "truth_path", type=click.Path(exists=True), default=None)
def recover(truth_path, **kwargs):
    """Approximate and additionally report the tuple distance to a truth tuple."""
    _approximate(truth_path=truth_path, **kwargs)


@main.command("synthesize")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--samples", default=DEFAULT_SAMPLES, show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
def synthesize_cmd(model_path, samples, out_path):
    """Sample a stored Blaschke model on the unit circle."""
    model = read_model_json(model_path)
    write_signal_csv(out_path, synthesize(model, samples))


@main.command()
@click.option("--suite", required=True,
              help="builtin suite name or path to a JSON descriptor")
@click.option("--out", "out_path", type=click.Path(), required=True)
def benchmark(suite, out_path):
    """Run a benchmark suite and write the comparison table."""
    descriptor = _load_suite(suite)
    rows = run_benchmark(descriptor)
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCHMARK_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    click.echo(f"wrote {len(rows)} rows to {out_path}")


BUILTIN_SUITES = {
    "ex5_1": {"targets": [{"name": f"ex5_1_f{i}"} for i in (1, 2, 3)],
              "algorithms": ["cafd_cgd"]},
    "ex5_3": {"targets": [{"name": "ex5_3"}], "algorithms": ["cafd_cgd"]},
    "recovery": {"targets": [{"name": n} for n in ("ex5_3", "ex5_4", "ex5_5", "ex5_6")],
                 "algorithms": ["cafd_cgd"]},
}


def _load_suite(suite):
    if suite in BUILTIN_SUITES:
        return BUILTIN_SUITES[suite]
    with open(suite) as fh:
        return json.load(fh)


@main.command("eval-grid")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--radial", type=int, required=True)
@click.option("--angular", type=int, required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
def eval_grid(input_path, radial, angular, out_path):
    """Dump the raw <f, e_z> table over a polar grid as CSV."""
    f = read_signal_csv(input_path)
    grid = build_polar_grid(radial, angular)
    table = feval_table(f, grid)
    nodes = grid.nodes()
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "n", "z_re", "z_im", "re", "im"])
        for m in range(nodes.shape[0]):
            for n in range(nodes.shape[1]):
                z = nodes[m, n]
                v = table[m, n]
                writer.writerow([
                    m + 1, n + 1,
                    repr(float(z.real)), repr(float(z.imag)),
                    repr(float(v.real)), repr(float(v.imag)),
                ])


def run():
    """Entry point mapping domain errors to the documented exit codes."""
    try:
        main(standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_VALIDATION)
    except click.Abort:
        sys.exit(EXIT_VALIDATION)
    except SearchNonConvergence as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_NO_CONVERGENCE)
    except (ValueError, KeyError, ZeroDivisionError, ArithmeticError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)


if __name__ == "__main__":
    run()
