"""Per-unit base conversions for branch impedances.

The general rebase is

    z_new = z_given * (v_base_given / v_base_new)**2 * (s_base_new / s_base_given)

With voltage bases chosen equal to nominal terminal voltages (the usual
zone convention) the voltage term drops and converting a common-base
reactance onto the equipment's own MVA rating is a pure power-base scaling.
All arithmetic is plain double precision; conversions are exact rational
scalings, so no snapping or tolerancing is applied.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import _require

__all__ = ["BaseSpec", "rebase_impedance", "to_own_base", "xr_ratio"]


@dataclass(frozen=True)
class BaseSpec:
    """Voltage base in kV and power base in MVA."""

    v_base: float
    s_base: float

    def __post_init__(self):
        _require("v_base", self.v_base)
        _require("s_base", self.s_base)


def rebase_impedance(z_pu_given: float, given: BaseSpec, new: BaseSpec) -> float:
    """Re-express a per-unit impedance on a new (voltage, power) base."""
    _require("z_pu_given", z_pu_given, "")
    return z_pu_given * (given.v_base / new.v_base) ** 2 * (new.s_base / given.s_base)


def to_own_base(x_pu_common: float, system_mva_base: float, mva_rating: float) -> float:
    """Convert a common-base reactance onto the equipment's own MVA rating.

    Assumes zone voltage bases equal nominal terminal voltages, so only the
    power-base term applies.
    """
    _require("system_mva_base", system_mva_base)
    _require("mva_rating", mva_rating)
    return x_pu_common * (mva_rating / system_mva_base)


def xr_ratio(r_pu: float, x_pu: float) -> float:
    """X/R of a branch; invariant under any common base conversion."""
    _require("r_pu", r_pu)
    return x_pu / r_pu
