from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

import pmufdi
from pmufdi import detector, experiment

# generated inputs come from a fixed derivation, so every run of the
# suite draws the same examples and nothing is stored between runs
settings.register_profile(
    "pmufdi", derandomize=True, database=None, deadline=None, max_examples=60)
settings.load_profile("pmufdi")

ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def record_acceptance(number: int, name: str, passed: bool, detail: str = ""):
    ACCEPTANCE_RESULTS.append((number, name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, name, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number} [{status}] {name}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)


def recording_mstep_ratios(patch, ratios):
    """Make the detector's M-step append tau / s_1 of its input to *ratios*,
    through the monkeypatch context *patch*."""
    threshold = detector.svt

    def thresholding(m, tau):
        ratios.append(tau / float(np.linalg.norm(m, 2)))
        return threshold(m, tau)

    patch.setattr(detector, "svt", thresholding)


@pytest.fixture
def detect_calls(monkeypatch):
    """A function that runs an experiment config and returns the
    (attacked block, dependency matrix, keyword arguments, result) of
    each of its detections."""
    def run(cfg):
        found = []

        def recording(block, dep, **kwargs):
            result = experiment_detect(block, dep, **kwargs)
            found.append((block, dep, kwargs, result))
            return result

        experiment_detect = experiment.detect
        with monkeypatch.context() as patch:
            patch.setattr(experiment, "detect", recording)
            experiment.run_experiment(cfg)
        return found

    return run


@pytest.fixture(scope="session")
def ieee24_case():
    return pmufdi.load_bundled_case("ieee24")


@pytest.fixture(scope="session")
def ieee24_plan():
    return pmufdi.default_plan("ieee24")


@pytest.fixture(scope="session")
def ieee24_dep(ieee24_case, ieee24_plan):
    return pmufdi.build_measurement_matrix(ieee24_case, ieee24_plan)


@pytest.fixture(scope="session")
def ieee24_blocks(ieee24_case, ieee24_plan):
    """(state, block, dep) for the default 5 s / 30 Hz run, seed 2024."""
    return pmufdi.generate_block(ieee24_case, ieee24_plan, 5.0, 30.0, seed=2024)


@pytest.fixture(scope="session")
def ieee118_case():
    return pmufdi.load_bundled_case("ieee118")


@pytest.fixture(scope="session")
def ieee118_plan():
    return pmufdi.default_plan("ieee118")


@pytest.fixture(scope="session")
def ieee118_dep(ieee118_case, ieee118_plan):
    return pmufdi.build_measurement_matrix(ieee118_case, ieee118_plan)


@pytest.fixture(scope="session")
def ieee118_blocks(ieee118_case, ieee118_plan):
    return pmufdi.generate_block(ieee118_case, ieee118_plan, 5.0, 30.0, seed=2024)


TWO_BUS_CASE = """\
function mpc = twobus
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0  0  0 0 1 1 0 138 1 1.1 0.9;
    2 1 50 20 0 0 1 1 0 138 1 1.1 0.9;
];
mpc.gen = [
    1 0 0 100 -100 1.0 100 1 200 0;
];
mpc.branch = [
    1 2 0.01 0.1 0 0 0 0 0 0 1;
];
"""

# same network with no demand anywhere: no admissible attacked set exists
TWO_BUS_NO_LOAD_CASE = TWO_BUS_CASE.replace("2 1 50 20", "2 1 0 0")

# same network with its one line doubled
PARALLEL_BRANCH_CASE = TWO_BUS_CASE.replace("    1 2 0.01 0.1 0 0 0 0 0 0 1;\n",
                                            "    1 2 0.01 0.1 0 0 0 0 0 0 1;\n" * 2)


@pytest.fixture(scope="session")
def two_bus_case():
    return pmufdi.parse_case(TWO_BUS_CASE)


@pytest.fixture(scope="session")
def two_bus_no_load_case():
    return pmufdi.parse_case(TWO_BUS_NO_LOAD_CASE)


@pytest.fixture(scope="session")
def parallel_branch_case():
    return pmufdi.parse_case(PARALLEL_BRANCH_CASE)
