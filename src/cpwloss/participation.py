"""Participation ratios and TLS loss budgets.

Bulk participations are energy fractions from the field solution. Thin
interface oxides are handled perturbatively: the layer stores energy

    u(l) = (eps0 * t / 2) * (eps_layer * |E_par|^2 + |E_norm|^2 / eps_layer)

per unit contour length, with the fields sampled on the air side of the
metal-air and substrate-air contours. E_par is continuous across the layer;
E_norm inside the layer follows from normal-D continuity with air, which is
where the 1 / eps_layer factor comes from. On metal contours E_par = 0 by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolveError
from .fieldsolve import (
    FieldSolution, boundary_fields, build_mesh, epsilon_0, solve_potential,
)
from .geometry import CpwStack, RegionId

# Canonical budget row order, matching the per-chip loss tables.
ROW_ORDER = ("substrate", "air", "metal_air", "substrate_air")

ROW_LABELS = {
    "substrate": "Silicon substrate",
    "air": "Air",
    "metal_air": "Metal-Air",
    "substrate_air": "Substrate-Air",
}


@dataclass(frozen=True)
class BudgetEntry:
    region: str  # one of ROW_ORDER
    participation: float
    loss_tangent: float

    @property
    def contribution(self) -> float:
        return self.participation * self.loss_tangent


@dataclass(frozen=True)
class ParticipationBudget:
    entries: tuple
    label: str = ""
    notes: tuple = ()

    @property
    def total(self) -> float:
        return float(sum(e.contribution for e in self.entries))

    @property
    def participation_sum(self) -> float:
        return float(sum(e.participation for e in self.entries))

    def entry(self, region: str) -> BudgetEntry:
        for e in self.entries:
            if e.region == region:
                return e
        raise KeyError(region)


def bulk_participation(solution: FieldSolution, region: RegionId) -> float:
    """Energy fraction of a meshed bulk region (substrate or air)."""
    if region not in solution.region_energy:
        raise SolveError(f"{region} is not a meshed bulk region")
    return solution.region_energy[region] / solution.total_energy


def _convex_corners(mesh):
    """Convex metal corners, where the sharp-corner field diverges."""
    lines = mesh.lines
    rows = [lines[k] for k in ("surface", "metal_top", "trench_floor") if k in lines]
    return [(mesh.x[i], mesh.y[j]) for j in rows
            for i in (lines["trace_edge"], lines["ground_edge"])]


def thin_layer_participation(solution: FieldSolution, layer_region: RegionId,
                             thickness: float, eps_layer: float,
                             corner_cutoff: float | None = None) -> float:
    """Participation of an unmeshed thin layer along an interface contour.

    The surface integral of |E|^2 diverges at the conductor corners
    (logarithmically where metal meets substrate); the sharp-corner field is
    an idealization that the finite oxide thickness rounds off. Contour
    intervals within `corner_cutoff` of a convex metal corner are therefore
    excluded. The default cutoff of a quarter layer thickness keeps the
    integral mesh-convergent and was calibrated against the direct-mesh
    validation mode (solve_with_meshed_sa_layer).
    """
    if thickness < 0:
        raise ConfigError(f"layer thickness must be >= 0, got {thickness}")
    if thickness == 0:
        return 0.0
    if eps_layer < 1:
        raise ConfigError(f"layer permittivity must be >= 1, got {eps_layer}")
    if corner_cutoff is None:
        corner_cutoff = thickness / 4.0
    bs = boundary_fields(solution, layer_region)
    frac = np.ones(len(bs.dl))
    if corner_cutoff > 0:
        for cx, cy in _convex_corners(solution.mesh):
            d = np.hypot(bs.x - cx, bs.y - cy)
            # fraction of each sample interval outside the cutoff zone
            frac = np.minimum(
                frac, np.clip((d - corner_cutoff) / bs.dl + 0.5, 0.0, 1.0)
            )
    u = 0.5 * epsilon_0 * thickness * (
        eps_layer * bs.e_par**2 + bs.e_norm**2 / eps_layer
    )
    # the samples cover x >= 0 of a mirror-symmetric cross section
    energy = 2.0 * float(np.sum(u * frac * bs.dl))
    return energy / solution.total_energy


def loss_budget(participations, loss_tangents, label: str = "",
                notes=()) -> ParticipationBudget:
    """Assemble a budget from (region -> p_i) and (region -> tan_delta)."""
    participations = dict(participations)
    if not participations:
        raise ConfigError("loss budget has no entries")
    loss_tangents = dict(loss_tangents)
    entries = []
    for region, p in participations.items():
        if region not in loss_tangents:
            if region == "air":
                loss_tangents[region] = 0.0
            else:
                raise ConfigError(f"missing loss tangent for region {region!r}")
        entries.append(BudgetEntry(region, float(p), float(loss_tangents[region])))
    order = {r: k for k, r in enumerate(ROW_ORDER)}
    entries.sort(key=lambda e: order.get(e.region, len(order)))
    return ParticipationBudget(tuple(entries), label=label, notes=tuple(notes))


def budget_shares(budget: ParticipationBudget) -> dict:
    """Percentage of the total loss carried by each region."""
    total = budget.total
    if total <= 0:
        raise ConfigError("budget total is zero; shares undefined")
    return {e.region: 100.0 * e.contribution / total for e in budget.entries}


def simulate_budget(stack: CpwStack, refinement_level: int = 1,
                    solution: FieldSolution | None = None,
                    label: str = "") -> ParticipationBudget:
    """Full pipeline: solve the cross section and assemble the loss budget.

    A precomputed FieldSolution for the same bulk geometry may be passed in;
    interface-layer thicknesses only enter the post-processing, so one solve
    serves every preset that shares (w, gap, metal thickness, trench).
    """
    if solution is None:
        mesh = build_mesh(stack, refinement_level)
        solution = solve_potential(mesh)

    eps_ma = stack.materials["MA_oxide"].relative_permittivity
    eps_sa = stack.materials["SA_oxide"].relative_permittivity

    p_sub = bulk_participation(solution, RegionId.Substrate)
    p_air = bulk_participation(solution, RegionId.Air)
    # top and sidewall oxides have different thicknesses; their participations
    # are computed separately and reported as a single metal-air entry
    p_ma = (
        thin_layer_participation(solution, RegionId.MetalAirTop,
                                 stack.layer_MA_top, eps_ma)
        + thin_layer_participation(solution, RegionId.MetalAirSide,
                                   stack.layer_MA_side, eps_ma)
    )
    p_ma *= stack.ma_scale
    p_sa = thin_layer_participation(solution, RegionId.SubstrateAir,
                                    stack.layer_SA, eps_sa)

    participations = {
        "substrate": p_sub,
        "air": p_air,
        "metal_air": p_ma,
        "substrate_air": p_sa,
    }
    loss_tangents = {
        "substrate": stack.materials["substrate"].loss_tangent,
        "air": 0.0,
        "metal_air": stack.materials["MA_oxide"].loss_tangent,
        "substrate_air": stack.materials["SA_oxide"].loss_tangent,
    }
    notes = []
    if stack.ma_scale != 1.0:
        notes.append(
            f"metal-air participation scaled by {stack.ma_scale:.3f} "
            "(remaining-oxide fraction; the XPS pentoxide-percentage ratio "
            "0.856 is an alternative convention)"
        )
    return loss_budget(participations, loss_tangents, label=label, notes=notes)


def _sig3(value: float) -> str:
    return f"{value:.3g}" if value != 0 else "0"


def format_budget_table(budget: ParticipationBudget) -> str:
    """Aligned text table: region, F_i, tan_delta, F_i*tan_delta, total."""
    rows = [("Region", "F_i", "tan_delta", "F_i*tan_delta")]
    for e in budget.entries:
        rows.append((
            ROW_LABELS.get(e.region, e.region),
            _sig3(e.participation), _sig3(e.loss_tangent), _sig3(e.contribution),
        ))
    rows.append(("Total loss", "", "", _sig3(budget.total)))
    widths = [max(len(r[k]) for r in rows) for k in range(4)]
    lines = []
    if budget.label:
        lines.append(budget.label)
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    for note in budget.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


# Reference simulated budgets for the six chip presets, used by the
# `reproduce-tables` command for side-by-side comparison.
REFERENCE_BUDGETS = {
    ("400C", "reference"): {
        "substrate": (0.911, 1.3e-7), "air": (0.088, 0.0),
        "metal_air": (1.87e-5, 0.01), "substrate_air": (3.7e-4, 1.7e-3),
        "total": 9.34e-7,
    },
    ("450C", "reference"): {
        "substrate": (0.911, 1.3e-7), "air": (0.088, 0.0),
        "metal_air": (1.83e-5, 0.01), "substrate_air": (3.7e-4, 1.7e-3),
        "total": 9.30e-7,
    },
    ("500C", "reference"): {
        "substrate": (0.911, 1.3e-7), "air": (0.088, 0.0),
        "metal_air": (1.95e-5, 0.01), "substrate_air": (3.94e-4, 1.7e-3),
        "total": 9.83e-7,
    },
    ("400C", "hf_treated"): {
        "substrate": (0.911, 1.3e-7), "air": (0.088, 0.0),
        "metal_air": (1.53e-5, 0.01), "substrate_air": (0.0, 0.0),
        "total": 2.72e-7,
    },
    ("450C", "hf_treated"): {
        "substrate": (0.911, 1.3e-7), "air": (0.088, 0.0),
        "metal_air": (1.53e-5, 0.01), "substrate_air": (0.0, 0.0),
        "total": 2.72e-7,
    },
    ("500C", "hf_treated"): {
        "substrate": (0.911, 1.3e-7), "air": (0.088, 0.0),
        "metal_air": (1.66e-5, 0.01), "substrate_air": (0.0, 0.0),
        "total": 2.85e-7,
    },
}
