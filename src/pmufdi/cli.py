"""Command-line front end.

Subcommands: generate (persist a synthetic block), attack (design one
attack), detect (run the detector on a stored block), experiment (full
pipeline to a report directory), sweep (detector-weight sweep). All
take an experiment config file; common flags override its fields.
"""

from __future__ import annotations

import logging
import sys
from pathlib import Path

import click

from .attack import design_attack
from .blocks import singular_spectrum
from .detector import classify_outcome, detect
from .experiment import ExperimentConfig, lambda_sweep, load_config, run_experiment
from .kernels import nuclear_norm
from .measurements import build_measurement_matrix
from .report import (SpectrumRow, SweepRow, read_block_csv, save_report, spectrum_rows,
                     write_block_csv, write_records, write_table)

log = logging.getLogger("pmufdi")


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True, dir_okay=False),
                      help="experiment config file (YAML)")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="override the config seed")(fn)
    fn = click.option("--out-dir", type=click.Path(file_okay=False),
                      default=None, help="override the output directory")(fn)
    return fn


def _load(config_path, seed, out_dir, **more) -> ExperimentConfig:
    logging.basicConfig(
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return load_config(config_path, seed=seed, out_dir=out_dir, **more)


def _number_list(convert):
    """A click callback that parses a comma-separated list with *convert*;
    a bad item is a usage error naming the option."""
    def parse(ctx, param, value):
        if value is None:
            return None
        try:
            return tuple(convert(item) for item in value.split(","))
        except ValueError:
            raise click.BadParameter(
                f"{value!r} is not a comma-separated list of {convert.__name__}s"
            ) from None
    return parse


@click.group()
def main():
    """Synthesize PMU blocks, design measurement attacks, run detection."""


@main.command()
@_common_options
def generate(config_path, seed, out_dir):
    """Generate the synthetic block and write block.csv and spectrum.csv."""
    cfg = _load(config_path, seed, out_dir)
    _, block, _ = cfg.build_block()
    out = Path(cfg.out_dir)
    click.echo(str(write_block_csv(block, out / "block.csv")))
    click.echo(str(write_records(out / "spectrum.csv", SpectrumRow,
                                 spectrum_rows("full", singular_spectrum(block)))))


@main.command()
@_common_options
@click.option("--buses", required=True, callback=_number_list(int),
              help="attacked-state set, comma separated bus ids (e.g. 8 or 8,9)")
@click.option("--window", "window_index", type=int, default=1, show_default=True,
              help="1-based index into the config's detection windows")
def attack(config_path, seed, out_dir, buses, window_index):
    """Design one attack and write the attacked block plus a summary row."""
    cfg = _load(config_path, seed, out_dir)
    if not 1 <= window_index <= len(cfg.windows):
        raise click.BadParameter(f"window must be in 1..{len(cfg.windows)}")
    _, block, dep = cfg.build_block()
    first, last = cfg.windows[window_index - 1]
    window = block.window(first, last)
    scen = design_attack(window, dep, buses)
    clean = nuclear_norm(window.z)
    out = Path(cfg.out_dir)
    path = write_block_csv(scen.attacked_block, out / "attacked_block.csv")
    write_table(out / "attack.csv",
                ["set_size", "buses", "clean_nuclear", "attacked_nuclear", "ratio"],
                [(len(scen.attacked_buses), scen.attacked_buses,
                  clean, scen.objective, scen.objective / clean)])
    click.echo(f"objective {scen.objective:.6g} (clean {clean:.6g})")
    click.echo(str(path))


@main.command("detect")
@_common_options
@click.option("--block", "block_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="measurement block CSV, as written by generate or attack")
@click.option("--lambda", "weight", type=float, default=None,
              help="detector weight (default from config)")
@click.option("--injected", default=None, callback=_number_list(int),
              help="attacked buses actually injected, for outcome labelling")
def detect_cmd(config_path, seed, out_dir, block_path, weight, injected):
    """Run the detector on a stored block and write detection.csv."""
    cfg = _load(config_path, seed, out_dir, weight=weight)
    case, plan = cfg.load_grid()
    dep = build_measurement_matrix(case, plan)
    # an unknown id would otherwise count as injected, and a clean block
    # that flags nothing would be labelled bypassed
    unknown = sorted(set(injected or ()) - set(dep.bus_ids))
    if unknown:
        raise click.BadParameter(f"{unknown} are not buses of {case.name}",
                                 param_hint="'--injected'")
    block = read_block_csv(block_path)
    result = detect(block, dep, weight=cfg.weight,
                    options=cfg.solver, thresholds=cfg.thresholds)
    outcome = classify_outcome(result, injected)
    write_table(Path(cfg.out_dir) / "detection.csv",
                ["outcome", "weight", "objective", "feasibility_residual", "iterations",
                 "flagged_buses", "flagged_channels", "max_state_column_norm"],
                [(outcome.value, result.weight, result.objective,
                  result.feasibility_residual, result.diagnostics.iterations,
                  result.state_support,
                  tuple(result.labels[i] for i in result.channel_support),
                  float(result.state_column_norms.max(initial=0.0)))])
    click.echo(f"outcome: {outcome.value}; flagged: {list(result.state_support)}")


@main.command()
@_common_options
@click.option("--lambda", "weight", type=float, default=None,
              help="override the detector weight")
@click.option("--max-set-size", type=int, default=None,
              help="override the largest attacked-set size")
@click.option("--limit", type=int, default=None,
              help="cap the number of attacked sets per window")
@click.option("--workers", type=int, default=None,
              help="scenario threads, each running BLAS single-threaded")
def experiment(config_path, seed, out_dir, weight, max_set_size,
               limit, workers):
    """Run the full pipeline and write the report directory.

    Exits 2 when any designed attack is flagged strictly inside its
    attacked set, which the design guarantees cannot happen.
    """
    cfg = _load(config_path, seed, out_dir,
                weight=weight, max_set_size=max_set_size,
                limit=limit, workers=workers)
    report = run_experiment(cfg)
    save_report(report, cfg.out_dir)
    counts = report.meta["outcomes"]
    click.echo(f"{report.meta['n_scenarios']} scenarios: {counts}")
    click.echo(f"report: {cfg.out_dir}")
    if report.exit_code:
        click.echo(f"{len(report.in_set_detections)} attacks were flagged "
                   "inside their attacked set", err=True)
    sys.exit(report.exit_code)


@main.command()
@_common_options
@click.option("--lambdas", required=True, callback=_number_list(float),
              help="comma-separated detector weights, e.g. 0.5,1.05,2,5")
def sweep(config_path, seed, out_dir, lambdas):
    """Detector-weight sweep over fixed designed and naive attacks."""
    cfg = _load(config_path, seed, out_dir)
    rows = lambda_sweep(cfg, lambdas)
    path = write_records(Path(cfg.out_dir) / "lambda_sweep.csv", SweepRow, rows)
    for row in rows:
        click.echo(f"lambda={row.weight:g} {row.kind}: {row.outcome}")
    click.echo(str(path))


if __name__ == "__main__":
    main()
