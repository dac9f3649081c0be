import re

import numpy as np
import pytest
from click.testing import CliRunner

from pmufdi.blocks import load_block
from pmufdi.cli import main

CONFIG = """\
system: ieee24
plan:
  voltage_buses: [1, 2, 7, 9, 10, 11, 15, 17, 20]
  from_branches: [1, 2, 3, 4, 5, 11, 14, 15, 16, 17, 18, 19,
                  24, 25, 26, 27, 30, 31, 36, 37]
  to_branches: [1, 6, 8, 9, 10, 12, 13, 14, 16, 28, 34, 35]
duration_s: 5.0
rate_hz: 30
window_length: 60
windows:
  - [31, 90]
  - [91, 150]
seed: 2024
lambda: 1.05
max_set_size: 1
limit: 2
out_dir: {out}
"""


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(CONFIG.format(out=tmp_path / "out"))
    return path


def test_generate(runner, config_path, tmp_path):
    result = runner.invoke(main, ["generate", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    block = load_block(tmp_path / "out" / "block.npz")
    assert block.n_steps == 150
    csv_block = load_block(tmp_path / "out" / "block.csv")
    assert np.array_equal(block.z, csv_block.z)
    assert (tmp_path / "out" / "spectrum.csv").exists()


def test_attack_and_detect(runner, config_path, tmp_path):
    result = runner.invoke(main, ["attack", "--config", str(config_path),
                                  "--buses", "8"])
    assert result.exit_code == 0, result.output
    attacked = tmp_path / "out" / "attacked_block.npz"
    assert attacked.exists()
    assert (tmp_path / "out" / "attack.csv").read_text().splitlines()[0] == (
        "set_size,buses,clean_nuclear,attacked_nuclear,ratio,iterations,"
        "primal_residual,dual_residual")

    result = runner.invoke(main, [
        "detect", "--config", str(config_path),
        "--block", str(attacked), "--injected", "8",
    ])
    assert result.exit_code == 0, result.output
    assert "bypassed" in result.output
    header, row = (tmp_path / "out" / "detection.csv").read_text().splitlines()
    assert header == ("outcome,weight,objective,feasibility_residual,iterations,"
                      "flagged_buses,flagged_channels,max_state_column_norm")
    assert row.startswith("bypassed,1.05,")


def test_detect_rejects_nonpositive_lambda(runner, config_path, tmp_path):
    runner.invoke(main, ["generate", "--config", str(config_path)])
    result = runner.invoke(main, [
        "detect", "--config", str(config_path),
        "--block", str(tmp_path / "out" / "block.npz"), "--lambda", "0",
    ])
    assert result.exit_code != 0
    assert "weight" in str(result.exception)
    assert not (tmp_path / "out" / "detection.csv").exists()


def test_detect_clean_block(runner, config_path, tmp_path):
    runner.invoke(main, ["generate", "--config", str(config_path)])
    result = runner.invoke(main, [
        "detect", "--config", str(config_path),
        "--block", str(tmp_path / "out" / "block.npz"),
    ])
    assert result.exit_code == 0, result.output
    assert "clean" in result.output


def test_detect_rejects_foreign_dependency_digest(runner, config_path, tmp_path):
    runner.invoke(main, ["generate", "--config", str(config_path)])
    block_csv = tmp_path / "out" / "block.csv"
    text = block_csv.read_text()
    digest = re.search(r"^# dependency: (\w+)$", text, re.M).group(1)
    block_csv.write_text(text.replace(f"# dependency: {digest}", "# dependency: 000000000000"))
    result = runner.invoke(main, [
        "detect", "--config", str(config_path), "--block", str(block_csv),
    ])
    assert result.exit_code != 0
    assert "000000000000" in str(result.exception)
    assert digest in str(result.exception)


def test_experiment_exit_zero(runner, config_path, tmp_path):
    result = runner.invoke(main, ["experiment", "--config", str(config_path),
                                  "--limit", "2"])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "out" / "scenarios.csv").exists()
    assert "bypassed" in result.output


def test_sweep(runner, config_path, tmp_path):
    result = runner.invoke(main, ["sweep", "--config", str(config_path),
                                  "--lambdas", "2,1000000"])
    assert result.exit_code == 0, result.output
    sweep_csv = (tmp_path / "out" / "lambda_sweep.csv").read_text()
    assert "designed" in sweep_csv and "naive" in sweep_csv


def test_bad_config_fails(runner, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("system: nonexistent\n")
    result = runner.invoke(main, ["generate", "--config", str(bad)])
    assert result.exit_code != 0


def test_attack_rejects_bad_window(runner, config_path):
    result = runner.invoke(main, ["attack", "--config", str(config_path),
                                  "--buses", "8", "--window", "9"])
    assert result.exit_code != 0
