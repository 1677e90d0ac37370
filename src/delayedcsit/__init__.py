"""Degrees of freedom with completely delayed transmitter CSI.

Exact rational DoF calculators, symbolic execution of the retrospective
interference-alignment schemes, the order-1 DoF region, and finite-SNR
Monte Carlo rate simulation for the MIMO broadcast channel where the
transmitter learns each channel state only after it has expired.
"""

from .dof_calc import (
    DofQuery,
    NonsquarePhaseParams,
    OutOfRegimeError,
    coherence_dof,
    dof_square,
    dof_upper,
    harmonic,
    hockey_stick,
    identity_check,
    nonsquare_closed_form,
    nonsquare_recursion,
    outer_bound_lhs,
)
from .ledger import (
    BaseSymbol,
    ReceiverState,
    SymbolTable,
    alignment_ranks,
    can_decode,
    combine,
    transmit_slots,
)
from .numerics import RngStream, numerical_rank
from .ratesim import (
    RatePoint,
    SlopeFit,
    fit_dof_slope,
    simulate_rates,
    snr_grid,
    tdma_baseline,
)
from .region import (
    as_point,
    combination_value,
    corner_candidates,
    decompose_time_sharing,
    in_region,
    symmetric_corner,
    tight_permutations,
)
from .schemes import (
    PhaseRecord,
    SchemeTrace,
    build_phase,
    run_alt22,
    run_mat23_suboptimal,
    run_opt23,
    run_order_j_delivery,
    run_square_scheme,
    tdma_trace,
)

__version__ = "1.0.0"

__all__ = [
    "BaseSymbol",
    "DofQuery",
    "NonsquarePhaseParams",
    "OutOfRegimeError",
    "PhaseRecord",
    "RatePoint",
    "ReceiverState",
    "RngStream",
    "SchemeTrace",
    "SlopeFit",
    "SymbolTable",
    "alignment_ranks",
    "as_point",
    "build_phase",
    "can_decode",
    "coherence_dof",
    "combination_value",
    "combine",
    "corner_candidates",
    "decompose_time_sharing",
    "dof_square",
    "dof_upper",
    "fit_dof_slope",
    "harmonic",
    "hockey_stick",
    "identity_check",
    "in_region",
    "nonsquare_closed_form",
    "nonsquare_recursion",
    "numerical_rank",
    "outer_bound_lhs",
    "run_alt22",
    "run_mat23_suboptimal",
    "run_opt23",
    "run_order_j_delivery",
    "run_square_scheme",
    "simulate_rates",
    "snr_grid",
    "symmetric_corner",
    "tdma_baseline",
    "tdma_trace",
    "tight_permutations",
    "transmit_slots",
]
