import re
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import example, given
from hypothesis import strategies as st

from pmufdi.report import read_block_csv
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
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["block.csv", "spectrum.csv"]
    block = read_block_csv(tmp_path / "out" / "block.csv")
    assert block.n_steps == 150


def test_attack_and_detect(runner, config_path, tmp_path):
    result = runner.invoke(main, ["attack", "--config", str(config_path),
                                  "--buses", "8"])
    assert result.exit_code == 0, result.output
    attacked = tmp_path / "out" / "attacked_block.csv"
    assert result.output.splitlines()[-1] == str(attacked)
    block = read_block_csv(attacked)
    assert block.attacked
    assert block.start_index == 31          # the config's first window
    assert (tmp_path / "out" / "attack.csv").read_text().splitlines()[0] == (
        "set_size,buses,clean_nuclear,attacked_nuclear,ratio")

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


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_sweep_rejects_nan_lambda(runner, config_path, tmp_path, weight):
    result = runner.invoke(main, ["sweep", "--config", str(config_path),
                                  "--lambdas", f"1.05,{weight}"])
    assert result.exit_code != 0
    assert "sweep weights" in str(result.exception)
    assert not (tmp_path / "out" / "lambda_sweep.csv").exists()


def test_detect_clean_block(runner, config_path, tmp_path):
    runner.invoke(main, ["generate", "--config", str(config_path)])
    result = runner.invoke(main, [
        "detect", "--config", str(config_path),
        "--block", str(tmp_path / "out" / "block.csv"),
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


def test_detect_rejects_non_finite_block(runner, config_path, tmp_path):
    runner.invoke(main, ["generate", "--config", str(config_path)])
    block_csv = tmp_path / "out" / "block.csv"
    lines = block_csv.read_text().splitlines()
    labels = next(line for line in lines if line.startswith("t,")).split(",")
    row = next(i for i, line in enumerate(lines) if line.startswith("40,"))
    cells = lines[row].split(",")
    cells[3] = "nan+0j"
    lines[row] = ",".join(cells)
    block_csv.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, [
        "detect", "--config", str(config_path), "--block", str(block_csv),
    ])
    assert result.exit_code != 0
    assert isinstance(result.exception, ValueError)
    assert f"sample 40, channel {labels[3]!r}" in str(result.exception)


def test_experiment_exit_zero(runner, config_path, tmp_path):
    result = runner.invoke(main, ["experiment", "--config", str(config_path),
                                  "--limit", "2"])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "out" / "scenarios.csv").exists()
    assert "bypassed" in result.output


def test_detect_refuses_unknown_injected_buses(runner, config_path, tmp_path):
    # a clean block flags nothing; with a bus that does not exist counted
    # as injected, it used to be labelled bypassed
    runner.invoke(main, ["generate", "--config", str(config_path)])
    result = runner.invoke(main, [
        "detect", "--config", str(config_path),
        "--block", str(tmp_path / "out" / "block.csv"), "--injected", "8,999,1000",
    ])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--injected'" in result.output
    assert "[999, 1000] are not buses of" in result.output
    assert not (tmp_path / "out" / "detection.csv").exists()


def test_attack_refuses_unknown_buses(runner, config_path, tmp_path):
    result = runner.invoke(main, ["attack", "--config", str(config_path),
                                  "--buses", "8,999"])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--buses'" in result.output
    assert "[999] are not buses of" in result.output
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("args", [
    ["experiment", "--lambda", "2"],
    ["detect", "--block", "{block}", "--lambda", "2"],
    ["attack", "--buses", "8", "--window", "2"],
], ids=["experiment-lambda", "detect-lambda", "attack-window"])
def test_settings_of_the_config_are_not_options(runner, config_path, tmp_path, args):
    # lambda and the windows come from the config alone
    block = tmp_path / "block.csv"
    block.write_text("t\n")
    args = [arg.format(block=block) for arg in args]
    result = runner.invoke(main, [*args, "--config", str(config_path)])
    assert result.exit_code == 2, result.output
    assert "No such option" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, option", [
    (["attack", "--buses", "8,x"], "--buses"),
    (["detect", "--block", "{block}", "--injected", "8,x"], "--injected"),
    (["sweep", "--lambdas", "1,abc"], "--lambdas"),
], ids=["buses", "injected", "lambdas"])
def test_bad_list_option_is_a_usage_error(runner, config_path, tmp_path, args, option):
    block = tmp_path / "block.csv"
    block.write_text("t\n")
    args = [arg.format(block=block) for arg in args]
    result = runner.invoke(main, [*args, "--config", str(config_path)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output


SHIPPED_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "ieee24.yaml")
# plain ASCII decimal numbers, with the surrounding ASCII space that int and float strip
_SPACE = "[ \t\n\r\f\v]*"
_INT = re.compile(f"{_SPACE}[+-]?[0-9]+{_SPACE}")
_FLOAT = re.compile(f"{_SPACE}[+-]?(([0-9]+\\.?[0-9]*|\\.[0-9]+)([eE][+-]?[0-9]+)?"
                    f"|inf|infinity|nan){_SPACE}", re.IGNORECASE)
_LIST_TOKENS = st.sampled_from(["8", "9", "0", "1", "05", ",", "_", ".", "e", "-", "+", " ",
                                "inf", "nan", "x", "\uff18", "\u0663", "\u2003", "\u00b2"])


@example(command="attack", text="8_9")
@example(command="sweep", text="1_05")
@example(command="attack", text="\uff18")
@given(command=st.sampled_from(["attack", "detect", "sweep"]),
       text=st.lists(_LIST_TOKENS, min_size=1, max_size=6).map("".join))
def test_a_list_option_reads_only_plain_ascii_numbers(command, text):
    option, grammar = {"attack": ("--buses", _INT), "detect": ("--injected", _INT),
                       "sweep": ("--lambdas", _FLOAT)}[command]
    args = ["--config", SHIPPED_CONFIG, f"{option}={text}"]
    if command == "detect":         # parsed, not run: any existing file will do
        args += ["--block", SHIPPED_CONFIG]
    try:
        main.commands[command].make_context(command, args)
    except click.UsageError as exc:
        assert exc.exit_code == 2
        assert f"'{option}'" in exc.format_message()
    else:
        assert all(grammar.fullmatch(item) for item in text.split(","))
