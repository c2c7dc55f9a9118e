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
from dataclasses import dataclass, field, asdict

from .errors import ConfigError

_UNIT_SCALE = {
    "m": 1.0,
    "mm": 1e-3,
    "um": 1e-6,
    "µm": 1e-6,
    "nm": 1e-9,
}


def parse_length(value) -> float:
    """Parse a length given in meters or as a string with a unit suffix."""
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        parts = value.strip().split()
        if len(parts) == 1:
            # allow "10um" without a space
            for unit in sorted(_UNIT_SCALE, key=len, reverse=True):
                if parts[0].endswith(unit):
                    num = parts[0][: -len(unit)]
                    if num:
                        parts = [num, unit]
                        break
        if len(parts) == 2 and parts[1] in _UNIT_SCALE:
            try:
                return float(parts[0]) * _UNIT_SCALE[parts[1]]
            except ValueError:
                raise ConfigError(f"cannot parse length {value!r}") from None
        try:
            return float(parts[0])
        except ValueError:
            raise ConfigError(f"cannot parse length {value!r}") from None
    raise ConfigError(f"cannot parse length {value!r}")


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
        if self.relative_permittivity < 1.0:
            raise ConfigError(
                f"material {self.name!r}: relative permittivity "
                f"{self.relative_permittivity} < 1"
            )
        if self.loss_tangent < 0.0:
            raise ConfigError(f"material {self.name!r}: negative loss tangent")


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
        positive = {
            "trace_width": self.trace_width,
            "gap": self.gap,
            "metal_thickness": self.metal_thickness,
            "substrate_thickness": self.substrate_thickness,
            "domain_halfwidth": self.domain_halfwidth,
            "domain_height_air": self.domain_height_air,
            "domain_depth_substrate": self.domain_depth_substrate,
        }
        for name, value in positive.items():
            if not value > 0.0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        nonneg = {
            "trench_depth": self.trench_depth,
            "layer_MA_top": self.layer_MA_top,
            "layer_MA_side": self.layer_MA_side,
            "layer_SA": self.layer_SA,
        }
        for name, value in nonneg.items():
            if value < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
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
        for role in ("substrate", "air", "MA_oxide", "SA_oxide"):
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


_LENGTH_KEYS = (
    "trace_width",
    "gap",
    "metal_thickness",
    "substrate_thickness",
    "trench_depth",
    "layer_MA_top",
    "layer_MA_side",
    "layer_SA",
    "domain_halfwidth",
    "domain_height_air",
    "domain_depth_substrate",
)


def build_stack(config: dict | None = None, **overrides) -> CpwStack:
    """Build and validate a CpwStack from a config mapping plus overrides."""
    cfg = dict(config or {})
    cfg.update(overrides)
    kwargs = {}
    for key, value in cfg.items():
        if key in _LENGTH_KEYS:
            kwargs[key] = parse_length(value)
        elif key == "materials":
            mats = dict(DEFAULT_MATERIALS)
            for role, spec in value.items():
                if isinstance(spec, MaterialConstants):
                    mats[role] = spec
                else:
                    mats[role] = MaterialConstants(
                        name=spec.get("name", role),
                        relative_permittivity=float(spec["relative_permittivity"]),
                        loss_tangent=float(spec.get("loss_tangent", 0.0)),
                    )
            kwargs["materials"] = mats
        elif key == "ma_scale":
            kwargs[key] = float(value)
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


DEPOSITION_LABELS = ("400C", "450C", "500C")
TREATMENTS = ("reference", "hf_treated")

# Per-chip metal-air oxide thicknesses (top, sidewall) from cross-section
# imaging of the three deposition temperatures.
_MA_THICKNESS = {
    "400C": (3.7e-9, 6.0e-9),
    "450C": (3.5e-9, 6.0e-9),
    "500C": (3.5e-9, 6.5e-9),
}

# HF-treated chips: SiO2 in the gap is fully removed and the metal oxide is
# thinned; the scale factor is the ratio of treated to reference metal-air
# participation implied by the per-chip oxide-thickness reduction.
_HF_MA_SCALE = {
    "400C": 1.53 / 1.87,
    "450C": 1.53 / 1.83,
    "500C": 1.66 / 1.95,
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
        kwargs["layer_SA"] = 0.0
        kwargs["ma_scale"] = _HF_MA_SCALE[deposition_label]
    return CpwStack(**kwargs)
