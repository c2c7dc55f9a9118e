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

from .errors import ConfigError, MeshError, SolveError
from .fieldsolve import (FieldSolution, build_mesh, epsilon_0, mesh_inputs,
                         solve_potential)
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


def thin_layer_participation(solution: FieldSolution, layer_region: RegionId,
                             thickness: float, eps_layer: float) -> float:
    """Participation of an unmeshed thin layer along an interface contour.

    The contour runs along the conductor grid lines recorded in `Mesh.lines`,
    over the meshed half x >= 0, and its integral counts the mirror image.
    At each grid node on it the air-side fields are sampled: E_norm by a
    second-order one-sided difference into the air, E_par by a central
    difference along the line (zero on metal); trapezoid weights give the
    arc length per node.

    The surface integral of |E|^2 diverges at the conductor corners
    (logarithmically where metal meets substrate); the sharp-corner field is
    an idealization that the finite oxide thickness rounds off. Contour
    intervals within a quarter layer thickness, t/4, of a convex metal
    corner are therefore excluded. That fixed cutoff is a convention that
    keeps the integral mesh-convergent; it is not calibrated at the physical
    thickness. On the 400C preset the directly meshed 2.5 nm gap oxide
    (solve_with_meshed_sa_layer) gives p_SA 4.375e-4 at level 2 and
    4.367e-4 at level 3, where this rule gives 3.568e-4 and 3.808e-4
    (direct 23% and 15% higher); see ROADMAP item 2.
    """
    if thickness < 0:
        raise ConfigError(f"layer thickness must be >= 0, got {thickness}")
    if thickness == 0:
        return 0.0
    if eps_layer < 1:
        raise ConfigError(f"layer permittivity must be >= 1, got {eps_layer}")
    x, y, lines = solution.mesh.x, solution.mesh.y, solution.mesh.lines
    if not lines:
        raise MeshError("thin-layer participation needs the grid lines of a "
                        "mesh built by build_mesh")
    i0, iw, ig = lines["axis"], lines["trace_edge"], lines["ground_edge"]
    j0, jt, jd = lines["surface"], lines["metal_top"], lines.get("trench_floor")
    # (vertical, grid line, first node, last node, step towards the air)
    if layer_region == RegionId.MetalAirTop:
        segments = [(False, jt, i0, iw, 1), (False, jt, ig, len(x) - 3, 1)]
    elif layer_region == RegionId.MetalAirSide:
        segments = [(True, iw, j0, jt, 1), (True, ig, j0, jt, -1)]
    elif layer_region == RegionId.SubstrateAir and jd is not None:
        segments = [(True, iw, jd + 1, j0 - 1, 1), (False, jd, iw + 1, ig - 1, 1),
                    (True, ig, jd + 1, j0 - 1, -1)]
    elif layer_region == RegionId.SubstrateAir:
        segments = [(False, j0, iw + 1, ig - 1, 1)]
    else:
        raise MeshError(f"{layer_region} is not an interface region")

    parts = []
    for vertical, k, a, b, step in segments:
        # p is indexed [along, across]; the air side lies towards k + step
        p, s, n = (solution.phi.T, y, x) if vertical else (solution.phi, x, y)
        h1, h2 = abs(n[k + step] - n[k]), abs(n[k + 2 * step] - n[k + step])
        c0 = -(2 * h1 + h2) / (h1 * (h1 + h2))
        c1 = (h1 + h2) / (h1 * h2)
        c2 = -h1 / (h2 * (h1 + h2))
        e_norm = -step * (c0 * p[a:b + 1, k] + c1 * p[a:b + 1, k + step]
                          + c2 * p[a:b + 1, k + 2 * step])
        if layer_region == RegionId.SubstrateAir:
            e_par = -(p[a + 1:b + 2, k] - p[a - 1:b, k]) / (s[a + 1:b + 2] - s[a - 1:b])
        else:  # E_par vanishes on a conductor surface
            e_par = np.zeros(b - a + 1)
        c = np.concatenate(([s[a]], s[a:b + 1], [s[b]]))  # ends repeated
        along, across = s[a:b + 1], np.full(b - a + 1, n[k])
        parts.append(((across, along) if vertical else (along, across))
                     + ((c[2:] - c[:-2]) / 2, e_par, e_norm))
    xs, ys, dl, e_par, e_norm = map(np.concatenate, zip(*parts))

    # distance of each sample to the nearest convex corner, then the fraction
    # of its interval outside the t/4 zone round that corner
    d = np.full(len(dl), np.inf)
    for j in (j0, jt) if jd is None else (j0, jt, jd):
        for i in (iw, ig):
            d = np.minimum(d, np.hypot(xs - x[i], ys - y[j]))
    frac = np.clip((d - thickness / 4.0) / dl + 0.5, 0.0, 1.0)
    u = 0.5 * epsilon_0 * thickness * (eps_layer * e_par**2 + e_norm**2 / eps_layer)
    # the samples cover x >= 0 of a mirror-symmetric cross section
    energy = 2.0 * float(np.sum(u * frac * dl))
    return energy / solution.total_energy


def loss_budget(participations, loss_tangents,
                label: str = "") -> ParticipationBudget:
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
        p, tan = float(p), float(loss_tangents[region])
        if not np.isfinite([p, tan]).all():
            raise ConfigError(f"non-finite participation or loss tangent for {region!r}")
        entries.append(BudgetEntry(region, p, tan))
    order = {r: k for k, r in enumerate(ROW_ORDER)}
    entries.sort(key=lambda e: order.get(e.region, len(order)))
    return ParticipationBudget(tuple(entries), label=label)


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

    A precomputed FieldSolution for the same bulk cross section may be
    passed in; interface-layer thicknesses only enter the post-processing,
    so one solve serves every preset that agrees on `mesh_inputs`. A
    solution of another cross section is a ConfigError that names the
    quantity that differs.
    """
    if solution is None:
        mesh = build_mesh(stack, refinement_level)
        solution = solve_potential(mesh)
    wanted = mesh_inputs(stack)
    for name, value in solution.mesh.inputs.items():
        if value != wanted[name]:
            raise ConfigError(f"the solution was solved for {name} = {value!r}, "
                              f"the stack has {wanted[name]!r}")

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
    return loss_budget(participations, loss_tangents, label=label)


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
    return "\n".join(lines)
