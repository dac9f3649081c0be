"""Random load trajectories with a geometrically decaying disturbance.

From a chosen onset instant onwards, bus demands receive a zero-mean
Gaussian active-power disturbance whose scale parameter decays as
``magnitude / decay**(t - onset)``. Common descriptions of this scheme
leave its reading ambiguous; here it is fixed: the parameter is a
variance in MW^2, converted to per unit by the MVA base, and one value
is drawn per instant and added to every bus, which keeps the
disturbance essentially rank-one. The draws of all instants come from
one vector call to the generator, which yields the same values as one
call per instant. Where ``decay**(t - onset)`` overflows, the variance
has decayed to 0 and the draw is an exact 0; where the variance grows
past the float range, the trajectory is refused. Reactive demand follows
the perturbed active demand at the base power factor; a bus whose factor
Qd / Pd lies past the float range, as under a subnormal Pd, is refused
with a CaseError naming it. Demands that would go negative are clamped
at zero and counted.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cases import CaseError, GridCase

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DisturbancePolicy:
    """The decaying disturbance variance: *magnitude* MW^2 at the onset
    instant, divided by *decay* at every later instant."""
    magnitude: float = 60.0
    decay: float = 1.1

    def __post_init__(self):
        if not (self.magnitude >= 0 and self.decay > 0):
            raise ValueError("magnitude must be >= 0 and decay > 0")

    def parameter(self, t: int, onset: int) -> float:
        """Raw decayed scale parameter at instant *t* (1-based): 0 where
        ``decay**(t - onset)`` overflows, inf where it underflows to 0."""
        try:
            return self.magnitude / self.decay ** (t - onset)
        except OverflowError:
            return 0.0
        except ZeroDivisionError:
            return math.inf if self.magnitude else 0.0

    def sigma_pu(self, t: int, onset: int, base_mva: float) -> float:
        """Per-unit standard deviation of the draw at instant *t*."""
        return math.sqrt(self.parameter(t, onset)) / base_mva


@dataclass(frozen=True)
class LoadTrajectory:
    pd: np.ndarray          # (T, n_bus) active demand, p.u.
    qd: np.ndarray          # (T, n_bus) reactive demand, p.u.
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
    on, every bus's active demand gets the same draw per instant, with the
    policy's decaying scale. Deterministic in (case, n_steps, onset,
    seed, policy).
    """
    if not 1 <= onset <= n_steps:
        raise ValueError(f"onset must lie in 1..{n_steps}, got {onset}")
    policy = policy or DisturbancePolicy()

    base_pd = np.array([b.pd for b in case.buses])
    base_qd = np.array([b.qd for b in case.buses])
    # reactive tracks active at the base power factor; undefined where pd == 0
    loaded = base_pd != 0.0
    with np.errstate(over="ignore"):
        qp_ratio = np.divide(base_qd, base_pd, out=np.zeros_like(base_qd), where=loaded)
    bad = np.flatnonzero(~np.isfinite(qp_ratio))
    if bad.size:
        bus = case.buses[int(bad[0])]
        raise CaseError(f"bus {bus.id}: its power factor Qd / Pd = {bus.qd!r} / {bus.pd!r} "
                        f"per unit is past the float range")

    rng = np.random.default_rng(seed)
    sigma = [policy.sigma_pu(t, onset, case.base_mva) for t in range(onset, n_steps + 1)]
    draws = rng.normal(0.0, sigma)
    bad = np.flatnonzero(~np.isfinite(draws))
    if bad.size:
        raise ValueError(f"disturbance decay {policy.decay!r} gives a non-finite load "
                         f"draw at instant {onset + int(bad[0])}")
    pd = np.tile(base_pd, (n_steps, 1))
    qd = np.tile(base_qd, (n_steps, 1))
    post = pd[onset - 1:]           # a view: the disturbed rows
    post += draws[:, None]
    negative = post < 0.0
    post[negative] = 0.0
    qd[onset - 1:] = np.where(loaded, post * qp_ratio, base_qd)
    clamped = int(np.count_nonzero(negative))

    if clamped:
        log.info("clamped %d negative demand draws to zero", clamped)

    pd.setflags(write=False)
    qd.setflags(write=False)
    return LoadTrajectory(pd=pd, qd=qd, clamped=clamped)
