"""Bundled benchmark systems and their default PMU placements.

Two systems ship with the package: the IEEE 24-bus reliability test system
and the IEEE 118-bus system. The default plans below place a PMU at each
listed bus; the branch id lists are 1-based rows of the bundled case
files' branch tables and cover every branch current a PMU at those buses
observes. Both placements make the system fully observable.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .cases import GridCase, load_case
from .measurements import PmuPlan

IEEE24 = "ieee24"
IEEE118 = "ieee118"

_CASE_FILES = {
    IEEE24: "case24_ieee_rts.m",
    IEEE118: "case118.m",
}

DEFAULT_PLANS = {
    IEEE24: PmuPlan(
        voltage_buses=(1, 2, 7, 9, 10, 11, 15, 17, 20),
        from_branches=(1, 2, 3, 4, 5, 11, 14, 15, 16, 17, 18, 19,
                       24, 25, 26, 27, 30, 31, 36, 37),
        to_branches=(1, 6, 8, 9, 10, 12, 13, 14, 16, 28, 34, 35),
    ),
    IEEE118: PmuPlan(
        voltage_buses=(2, 5, 10, 12, 15, 17, 21, 25, 29, 34, 37, 41, 45, 49,
                       53, 56, 62, 64, 72, 73, 75, 77, 80, 85, 87, 91, 94,
                       101, 105, 110, 114, 116),
        from_branches=(5, 11, 13, 17, 20, 21, 23, 26, 28, 33, 39, 40, 44, 49,
                       50, 52, 53, 58, 60, 62, 68, 70, 71, 74, 75, 76, 80, 82,
                       85, 86, 95, 97, 98, 99, 100, 101, 106, 120, 121, 123,
                       124, 128, 133, 135, 136, 143, 147, 148, 150, 151, 152,
                       153, 155, 162, 169, 170, 171, 176, 177, 178, 182, 184,
                       185),
        to_branches=(1, 3, 4, 8, 9, 12, 13, 14, 15, 18, 19, 21, 22, 27, 31,
                     32, 35, 36, 45, 47, 48, 50, 51, 56, 61, 65, 66, 67, 68,
                     69, 73, 78, 79, 91, 92, 94, 111, 112, 113, 115, 116, 117,
                     118, 119, 120, 123, 124, 125, 127, 131, 132, 134, 140,
                     145, 146, 160, 166, 168, 174, 175, 180, 183),
    ),
}


def system_names() -> tuple[str, ...]:
    return tuple(sorted(_CASE_FILES))


def bundled_case_path(name: str) -> Path:
    try:
        filename = _CASE_FILES[name]
    except KeyError:
        raise KeyError(f"unknown bundled system {name!r}; "
                       f"available: {sorted(_CASE_FILES)}") from None
    return Path(str(resources.files("pmufdi").joinpath("data", filename)))


def load_bundled_case(name: str) -> GridCase:
    return load_case(bundled_case_path(name))


def default_plan(name: str) -> PmuPlan:
    try:
        return DEFAULT_PLANS[name]
    except KeyError:
        raise KeyError(f"no default plan for {name!r}") from None
