"""Parametric CPW cross-section geometry and material constants.

The cross section is a center trace of width ``trace_width`` flanked by two
gaps of width ``gap`` and semi-infinite ground planes, all of metal thickness
``metal_thickness`` on a silicon substrate. Thin interface dielectrics
(metal-air oxide on top and sidewall, substrate-air oxide in the gap) are
stored as thicknesses only; they are never meshed and enter through the
thin-layer participation rule.

All lengths are stored internally in meters. Config files may give lengths
either as plain numbers (meters) or strings with a unit suffix ("10 um").
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field, fields, asdict

from .errors import ConfigError

_UNIT_SCALE = {
    "m": 1.0,
    "mm": 1e-3,
    "um": 1e-6,
    "µm": 1e-6,
    "nm": 1e-9,
}
# a number, then optionally a unit of _UNIT_SCALE, with or without a space
_LENGTH_PATTERN = re.compile(
    r"\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(%s)?\s*"
    % "|".join(sorted(_UNIT_SCALE, key=len, reverse=True)))


def parse_length(value) -> float:
    """Parse a length given in meters or as a string with a unit suffix."""
    # bool is an int, but a YAML `yes` is no length
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    match = _LENGTH_PATTERN.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ConfigError(f"cannot parse length {value!r}")
    return float(match[1]) * _UNIT_SCALE[match[2] or "m"]


def _number(value, name) -> float:
    """A config value as a float (a numeric string too, never a bool)."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


class RegionId(enum.Enum):
    """Labels for bulk regions and interface contours of the cross section."""

    Substrate = "substrate"
    Air = "air"
    MetalAirTop = "metal_air_top"
    MetalAirSide = "metal_air_side"
    SubstrateAir = "substrate_air"


@dataclass(frozen=True)
class MaterialConstants:
    name: str
    relative_permittivity: float
    loss_tangent: float

    def __post_init__(self):
        # chained comparisons are False for NaN, so non-finite values fail too
        if not 1.0 <= self.relative_permittivity < math.inf:
            raise ConfigError(
                f"material {self.name!r}: relative_permittivity must be finite "
                f"and >= 1, got {self.relative_permittivity}"
            )
        if not 0.0 <= self.loss_tangent < math.inf:
            raise ConfigError(f"material {self.name!r}: loss_tangent must be "
                              f"finite and >= 0, got {self.loss_tangent}")


# Default material set: Si substrate, air, Ta2O5 metal oxide, SiO2 gap oxide.
DEFAULT_MATERIALS = {
    "substrate": MaterialConstants("Si", 11.9, 1.3e-7),
    "air": MaterialConstants("air", 1.0, 0.0),
    "MA_oxide": MaterialConstants("Ta2O5", 25.0, 1.0e-2),
    "SA_oxide": MaterialConstants("SiO2", 3.9, 1.7e-3),
}


@dataclass(frozen=True)
class CpwStack:
    """Validated, immutable CPW cross-section description."""

    trace_width: float = 10e-6
    gap: float = 4.5e-6
    metal_thickness: float = 100e-9
    substrate_thickness: float = 775e-6
    trench_depth: float = 0.0
    layer_MA_top: float = 3.7e-9
    layer_MA_side: float = 6.0e-9
    layer_SA: float = 2.5e-9
    ma_scale: float = 1.0
    materials: dict = field(default_factory=lambda: dict(DEFAULT_MATERIALS))
    domain_halfwidth: float = 0.0  # 0 -> auto: 20 * (w + 2g)
    domain_height_air: float = 0.0
    domain_depth_substrate: float = 0.0

    def __post_init__(self):
        w, g = self.trace_width, self.gap
        auto = 20.0 * (w + 2.0 * g)
        if self.domain_halfwidth == 0.0:
            object.__setattr__(self, "domain_halfwidth", auto)
        if self.domain_height_air == 0.0:
            object.__setattr__(self, "domain_height_air", auto)
        if self.domain_depth_substrate == 0.0:
            object.__setattr__(
                self, "domain_depth_substrate", min(auto, self.substrate_thickness)
            )
        self.validate()

    def validate(self):
        for name in _LENGTH_KEYS:
            value, zero_ok = getattr(self, name), name in _MAY_BE_ZERO
            if not (0.0 < value < math.inf or zero_ok and value == 0.0):
                raise ConfigError(f"{name} must be finite and "
                                  f"{'>=' if zero_ok else '>'} 0, got {value}")
        if not 0.0 < self.ma_scale <= 1.0:
            raise ConfigError(f"ma_scale must be in (0, 1], got {self.ma_scale}")
        for t in (self.layer_MA_top, self.layer_MA_side, self.layer_SA):
            if t > 0 and t / self.trace_width >= 1e-2:
                raise ConfigError(
                    "interface layer thickness violates the thin-layer regime "
                    f"(t/w = {t / self.trace_width:.3g} >= 1e-2)"
                )
        if self.domain_halfwidth < 10.0 * (self.trace_width + 2.0 * self.gap):
            raise ConfigError("domain_halfwidth must be >= 10 * (w + 2*gap)")
        unknown = sorted(set(self.materials) - set(DEFAULT_MATERIALS))
        if unknown:
            raise ConfigError(f"unknown material roles {unknown}; expected "
                              f"{sorted(DEFAULT_MATERIALS)}")
        for role in DEFAULT_MATERIALS:
            if role not in self.materials:
                raise ConfigError(f"missing material for region role {role!r}")
            if not isinstance(self.materials[role], MaterialConstants):
                raise ConfigError(f"material {role!r} is not a MaterialConstants")
        if self.materials["air"].relative_permittivity != 1.0:
            raise ConfigError("air must have relative permittivity exactly 1")
        if self.materials["air"].loss_tangent != 0.0:
            raise ConfigError("air must have zero loss tangent")

    def to_config(self) -> dict:
        return asdict(self)  # recurses into the materials dict


_LENGTH_KEYS = tuple(f.name for f in fields(CpwStack)
                     if f.name not in ("ma_scale", "materials"))
# the lengths that may be zero; every other one must be > 0
_MAY_BE_ZERO = ("trench_depth", "layer_MA_top", "layer_MA_side", "layer_SA")
_MATERIAL_KEYS = tuple(f.name for f in fields(MaterialConstants))


def build_stack(config: dict | None = None, **overrides) -> CpwStack:
    """Build and validate a CpwStack from a config mapping plus overrides."""
    cfg = dict(config or {})
    cfg.update(overrides)
    kwargs = {}
    for key, value in cfg.items():
        if key in _LENGTH_KEYS:
            try:
                kwargs[key] = parse_length(value)
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        elif key == "materials":
            if not isinstance(value, dict):
                raise ConfigError(f"materials must map region roles to "
                                  f"materials, got {value!r}")
            mats = dict(DEFAULT_MATERIALS)
            for role, spec in value.items():
                if isinstance(spec, MaterialConstants):
                    mats[role] = spec
                    continue
                if not isinstance(spec, dict) or "relative_permittivity" not in spec:
                    raise ConfigError(
                        f"material {role!r} needs a relative_permittivity")
                unknown = sorted(set(spec) - set(_MATERIAL_KEYS))
                if unknown:
                    raise ConfigError(f"material {role!r} has unknown keys "
                                      f"{unknown}; expected {list(_MATERIAL_KEYS)}")
                mats[role] = MaterialConstants(
                    name=spec.get("name", role),
                    relative_permittivity=_number(
                        spec["relative_permittivity"],
                        f"material {role!r} relative_permittivity"),
                    loss_tangent=_number(spec.get("loss_tangent", 0.0),
                                         f"material {role!r} loss_tangent"),
                )
            kwargs["materials"] = mats
        elif key == "ma_scale":
            kwargs[key] = _number(value, key)
        else:
            raise ConfigError(f"unknown stack parameter {key!r}")
    return CpwStack(**kwargs)


def load_stack(path) -> CpwStack:
    """Load a stack from a YAML config file."""
    import yaml

    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} does not contain a mapping")
    return build_stack(cfg)


def save_stack(stack: CpwStack, path):
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(stack.to_config(), fh, sort_keys=True)


TREATMENTS = ("reference", "hf_treated")

# Per-chip metal-air oxide thicknesses (top, sidewall) from cross-section
# imaging of the three deposition temperatures.
_MA_THICKNESS = {
    "400C": (3.7e-9, 6.0e-9),
    "450C": (3.5e-9, 6.0e-9),
    "500C": (3.5e-9, 6.5e-9),
}
DEPOSITION_LABELS = tuple(_MA_THICKNESS)

# The published simulated budget of each chip: the participation of each
# budget row and the total loss F*tan_delta. `reproduce-tables` compares
# against it, in this order.
REFERENCE_BUDGETS = {
    ("400C", "reference"): {"substrate": 0.911, "air": 0.088, "metal_air": 1.87e-5,
                            "substrate_air": 3.7e-4, "total": 9.34e-7},
    ("400C", "hf_treated"): {"substrate": 0.911, "air": 0.088, "metal_air": 1.53e-5,
                             "substrate_air": 0.0, "total": 2.72e-7},
    ("450C", "reference"): {"substrate": 0.911, "air": 0.088, "metal_air": 1.83e-5,
                            "substrate_air": 3.7e-4, "total": 9.30e-7},
    ("450C", "hf_treated"): {"substrate": 0.911, "air": 0.088, "metal_air": 1.53e-5,
                             "substrate_air": 0.0, "total": 2.72e-7},
    ("500C", "reference"): {"substrate": 0.911, "air": 0.088, "metal_air": 1.95e-5,
                            "substrate_air": 3.94e-4, "total": 9.83e-7},
    ("500C", "hf_treated"): {"substrate": 0.911, "air": 0.088, "metal_air": 1.66e-5,
                             "substrate_air": 0.0, "total": 2.85e-7},
}


def reference_presets(deposition_label: str, treatment: str = "reference") -> CpwStack:
    """Stack preset for one of the six (temperature x treatment) chips."""
    if deposition_label not in DEPOSITION_LABELS:
        raise ConfigError(
            f"unknown deposition label {deposition_label!r}; "
            f"expected one of {DEPOSITION_LABELS}"
        )
    if treatment not in TREATMENTS:
        raise ConfigError(
            f"unknown treatment {treatment!r}; expected one of {TREATMENTS}"
        )
    ma_top, ma_side = _MA_THICKNESS[deposition_label]
    kwargs = dict(layer_MA_top=ma_top, layer_MA_side=ma_side, layer_SA=2.5e-9)
    if treatment == "hf_treated":
        # HF removes the gap oxide and thins the metal oxide. The metal-air
        # participation is scaled by the published treated-to-reference p_MA
        # ratio, so the HF metal-air rows of `reproduce-tables` match the
        # published ones by construction (ROADMAP item 5).
        p_ma = {t: REFERENCE_BUDGETS[deposition_label, t]["metal_air"]
                for t in TREATMENTS}
        kwargs["layer_SA"] = 0.0
        kwargs["ma_scale"] = p_ma["hf_treated"] / p_ma["reference"]
    return CpwStack(**kwargs)
