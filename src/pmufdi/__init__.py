"""Temporally correlated measurement attacks on synthetic PMU blocks and
the low-rank-decomposition detector that they target."""

from .admittance import AdmittanceSet, build_admittances
from .attack import (
    AttackScenario,
    apply_attack,
    design_attack,
    naive_ramp_attack,
)
from .attack_sets import (
    AttackSetValidation,
    enumerate_attack_sets,
    measurement_support,
    validate_attack_set,
)
from .blocks import (
    MeasurementBlock,
    StateBlock,
    generate_block,
    singular_spectrum,
)
from .cases import Branch, Bus, CaseError, CaseSyntaxError, Generator, GridCase, load_case, parse_case
from .detector import (
    DetectionResult,
    Outcome,
    SolverDiagnostics,
    SolverError,
    SolverOptions,
    ThresholdPolicy,
    classify_outcome,
    detect,
)
from .kernels import l12_norm, nuclear_norm, shrink_columns, svt
from .loads import DisturbancePolicy, LoadTrajectory, perturb_loads
from .measurements import (
    DependencyMatrix,
    PlanError,
    PmuPlan,
    build_measurement_matrix,
    check_observability,
    normalize_rows,
)
from .powerflow import PowerFlowError, PowerFlowSolution, solve_ac_power_flow
from .report import read_block_csv, write_block_csv
from .testsystems import bundled_case_path, default_plan, load_bundled_case, system_names

__version__ = "0.1.0"
