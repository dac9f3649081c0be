"""Random load trajectories with a geometrically decaying disturbance.

From a chosen onset instant onwards, bus demands receive a zero-mean
Gaussian active-power disturbance whose scale parameter decays as
``magnitude / decay**(t - onset)``. The parameter is interpreted as a
variance in MW^2 by default, and by default one value is drawn per
instant and added to every bus; the variance/std reading, the MW/p.u.
unit, and shared-vs-independent draws are all selectable; common
descriptions of this disturbance scheme leave all three ambiguous. Reactive
demand follows the perturbed active demand at the base power factor.
Demands that would go negative are clamped at zero and counted.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cases import GridCase

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DisturbancePolicy:
    """How the decaying scale parameter is applied.

    interpretation: "variance" (parameter is sigma^2) or "std" (parameter
    is sigma). units: "mw" (parameter refers to MW, converted by the MVA
    base) or "pu" (already per-unit). correlation: "shared" draws one
    value per instant and adds it to every bus, which keeps the
    disturbance essentially rank-one; "independent" draws per bus.
    """
    magnitude: float = 60.0
    decay: float = 1.1
    interpretation: str = "variance"
    units: str = "mw"
    correlation: str = "shared"

    def __post_init__(self):
        if self.interpretation not in ("variance", "std"):
            raise ValueError(f"interpretation must be variance|std, "
                             f"got {self.interpretation!r}")
        if self.units not in ("mw", "pu"):
            raise ValueError(f"units must be mw|pu, got {self.units!r}")
        if self.correlation not in ("shared", "independent"):
            raise ValueError(f"correlation must be shared|independent, "
                             f"got {self.correlation!r}")
        if self.magnitude < 0 or self.decay <= 0:
            raise ValueError("magnitude must be >= 0 and decay > 0")

    def parameter(self, t: int, onset: int) -> float:
        """Raw decayed scale parameter at instant *t* (1-based)."""
        return self.magnitude / self.decay ** (t - onset)

    def sigma_pu(self, t: int, onset: int, base_mva: float) -> float:
        """Per-unit standard deviation of the draw at instant *t*."""
        p = self.parameter(t, onset)
        sigma = math.sqrt(p) if self.interpretation == "variance" else p
        return sigma / base_mva if self.units == "mw" else sigma


@dataclass(frozen=True)
class LoadTrajectory:
    pd: np.ndarray          # (T, n_bus) active demand, p.u.
    qd: np.ndarray          # (T, n_bus) reactive demand, p.u.
    onset: int              # first disturbed instant, 1-based
    seed: int
    clamped: int            # number of negative draws clamped to zero


def perturb_loads(
    case: GridCase,
    n_steps: int,
    onset: int,
    seed: int,
    policy: DisturbancePolicy | None = None,
) -> LoadTrajectory:
    """Build a *n_steps*-long demand trajectory for *case*.

    Instants 1..onset-1 repeat the base-case demand exactly; from *onset*
    on, each bus's active demand gets an independent draw per instant with
    the policy's decaying scale. Deterministic in (case, n_steps, onset,
    seed, policy).
    """
    if not 1 <= onset <= n_steps:
        raise ValueError(f"onset must lie in 1..{n_steps}, got {onset}")
    policy = policy or DisturbancePolicy()

    base_pd = np.array([b.pd for b in case.buses])
    base_qd = np.array([b.qd for b in case.buses])
    # reactive tracks active at the base power factor; undefined where pd == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        qp_ratio = np.where(base_pd != 0.0, base_qd / np.where(base_pd == 0, 1, base_pd), 0.0)

    rng = np.random.default_rng(seed)
    pd = np.tile(base_pd, (n_steps, 1))
    qd = np.tile(base_qd, (n_steps, 1))
    clamped = 0
    for t in range(onset, n_steps + 1):
        sigma = policy.sigma_pu(t, onset, case.base_mva)
        if sigma == 0.0:
            draw = np.zeros(case.n_bus)
        elif policy.correlation == "shared":
            draw = np.full(case.n_bus, rng.normal(0.0, sigma))
        else:
            draw = rng.normal(0.0, sigma, size=case.n_bus)
        new_pd = base_pd + draw
        negative = new_pd < 0.0
        clamped += int(np.count_nonzero(negative))
        new_pd[negative] = 0.0
        pd[t - 1] = new_pd
        qd[t - 1] = np.where(base_pd != 0.0, new_pd * qp_ratio, base_qd)

    if clamped:
        log.info("clamped %d negative demand draws to zero", clamped)

    pd.setflags(write=False)
    qd.setflags(write=False)
    return LoadTrajectory(pd=pd, qd=qd, onset=onset, seed=seed, clamped=clamped)
