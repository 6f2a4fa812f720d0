"""Command-line interface: approximate, recover, synthesize, benchmark, eval-grid.

Signals travel as CSV (columns index,re,im), models as JSON with full
double precision.  Exit codes: 0 success, 2 validation error, 3 search
non-convergence, 4 line-search stall (the refinement's damping cap: every
trial rejected), 5 iteration cap (for 4 and 5 the model is still written).
A ValueError, ArithmeticError, KeyError (an unknown builtin target or
algorithm) or OSError exits 2 with its message after `error:`.  A file's
message names the file: one reader per kind builds its value type
(`_from_file`), and every JSON file goes through `_read_json`.
"""

import csv
import json
import sys

import click
import numpy as np

from .cgd import CgdStatus
from .feval import PolarGrid, feval_table
from .hardy import BlaschkeModel, PoleTuple, Signal, spectrum, synthesize
from .pipeline import RunConfig, cafd_cgd_result
from .search import SearchConfig, SearchNonConvergence
from .suites import BENCHMARK_COLUMNS, BUILTIN_SUITES, run_benchmark
from .targets import DEFAULT_SAMPLES, builtin_signal

EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_STALL = 4
EXIT_ITERATION_CAP = 5


def read_signal_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    try:
        # a short row leaves None in its missing fields
        samples = sorted(((int(r["index"]), float(r["re"]) + 1j * float(r["im"]))
                          for r in rows), key=lambda s: s[0])
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError(f"{path}: each row needs an integer index and numbers re, im") from exc
    if [j for j, _ in samples] != list(range(len(samples))):
        raise ValueError(f"{path}: sample indices must be exactly 0..N-1")
    return _from_file(path, Signal, [v for _, v in samples])


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


def _complex_field(path, entries, field):
    """The numbers in a JSON list of {"re": x, "im": y}; else a ValueError naming the file."""
    try:
        parts = [(c["re"], c["im"]) for c in entries]
        # not isinstance: JSON true is an int too
        if all(type(v) in (int, float) for pair in parts for v in pair):
            return [re + 1j * im for re, im in parts]
    except (TypeError, KeyError):
        pass
    raise ValueError(f'{path}: {field} must be a list of {{"re": x, "im": y}} with numbers x, y')


def _from_file(path, kind, *args):
    """kind(*args), the value type read from a file; its ValueError names the file."""
    try:
        return kind(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_json(path):
    """The JSON value in the file at `path`; else a ValueError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ValueError(f"{path}: not a JSON file ({exc})") from exc


def _pole_tuple(path, payload):
    """The poles of a model or truth file as a PoleTuple.

    A truth file may be a bare list of poles.  A `degree`, when present,
    must be the number of poles; else a ValueError naming the file.
    """
    fields = payload if isinstance(payload, dict) else {"poles": payload}
    poles = _complex_field(path, fields.get("poles"), "poles")
    degree = fields.get("degree", len(poles))
    if type(degree) is not int or degree != len(poles):
        raise ValueError(f"{path}: degree must equal the number of poles, {len(poles)}")
    return _from_file(path, PoleTuple, poles)


def read_model_json(path):
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a model must be a JSON object")
    residual = payload.get("residual_error", 0.0)
    if type(residual) not in (int, float):  # not isinstance: JSON true is an int too
        raise ValueError(f"{path}: residual_error must be a number")
    coeffs = _complex_field(path, payload.get("coeffs"), "coeffs")
    return _from_file(path, BlaschkeModel, _pole_tuple(path, payload), coeffs, residual)


def _load_input(input_path, builtin, samples):
    """The signal to approximate; --samples applies only to a --builtin target."""
    if (input_path is None) == (builtin is None):
        raise click.UsageError("exactly one of --input / --builtin is required")
    if input_path is None:
        return builtin_signal(builtin, DEFAULT_SAMPLES if samples is None else samples)
    if samples is not None:
        raise click.UsageError("--samples applies only to --builtin; "
                               "an --input file has as many samples as rows")
    return read_signal_csv(input_path)


def _run_options(fn):
    for deco in reversed([
        click.option("--input", "input_path", type=click.Path(exists=True)),
        click.option("--builtin", type=str, default=None),
        click.option("--degree", "-n", type=int, required=True),
        # None: not given, so an --input file keeps its own count
        click.option("--samples", type=int, default=None,
                     help=f"samples of a --builtin target  [default: {DEFAULT_SAMPLES}]"),
        click.option("--radial", default=SearchConfig.radial, show_default=True),
        click.option("--angular", default=SearchConfig.angular, show_default=True),
        click.option("--out", "out_path", type=click.Path(), required=True),
    ]):
        fn = deco(fn)
    return fn


def _approximate(input_path, builtin, degree, samples, radial, angular, out_path,
                 truth_path=None):
    cfg = RunConfig(degree, SearchConfig(radial=radial, angular=angular))
    f = _load_input(input_path, builtin, samples)
    truth = _pole_tuple(truth_path, _read_json(truth_path)) if truth_path else None
    result = cafd_cgd_result(f, cfg, truth=truth)
    write_model_json(out_path, result.model)
    click.echo(f"l2_relative_error: {result.l2_relative_error:.6e}")
    if result.tuple_distance is not None:
        click.echo(f"tuple_distance: {result.tuple_distance:.6e}")
    click.echo(f"working_samples: {result.working_samples}")
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


def _load_suite(suite):
    if suite in BUILTIN_SUITES:
        return BUILTIN_SUITES[suite]
    try:
        return _read_json(suite)
    except OSError as exc:
        raise click.BadParameter(
            f"{suite!r} is neither a builtin suite nor a readable file ({exc.strerror})",
            param_hint="--suite")


@main.command("eval-grid")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--radial", type=int, required=True)
@click.option("--angular", type=int, required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
def eval_grid(input_path, radial, angular, out_path):
    """Dump the raw <f, e_z> table over a polar grid as CSV."""
    f = read_signal_csv(input_path)
    grid = PolarGrid(radial, angular)
    table = feval_table(spectrum(f), grid)
    nodes = grid.nodes()
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "n", "z_re", "z_im", "re", "im"])
        for (m, n), z in np.ndenumerate(nodes):
            parts = (z.real, z.imag, table[m, n].real, table[m, n].imag)
            writer.writerow([m + 1, n + 1, *(repr(float(x)) for x in parts)])


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
    except KeyError as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        click.echo(f"error: {exc.args[0]}", err=True)
        sys.exit(EXIT_VALIDATION)
    except (ValueError, ArithmeticError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)


if __name__ == "__main__":
    run()
