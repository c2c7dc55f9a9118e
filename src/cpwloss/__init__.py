"""Loss-analysis toolkit for superconducting coplanar-waveguide resonators.

Pipeline: cross-section geometry -> 2D electrostatic field solve ->
participation ratios and TLS loss budgets -> S21 resonance fitting ->
TLS power-dependence fitting -> chip-level statistics.
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    CpwStack, MaterialConstants, RegionId, build_stack, load_stack,
    reference_presets, save_stack,
)
from .fieldsolve import (  # noqa: F401
    FieldSolution, Mesh, build_mesh, solve_potential,
)
from .participation import (  # noqa: F401
    ParticipationBudget, budget_shares, bulk_participation,
    loss_budget, simulate_budget, thin_layer_participation,
)
from .s21fit import (  # noqa: F401
    ResonatorFit, S21Trace, fit_s21, notch_model, photon_number, synth_trace,
)
from .tlsfit import (  # noqa: F401
    PhotonSweep, TlsFit, fit_tls, q_low_high, synth_sweep, tls_inverse_q,
)
from .stats import (  # noqa: F401
    BoxplotStats, ChipSummary, boxplot_stats, compare_measured_vs_simulated,
    summarize_chip, weighted_mean,
)
