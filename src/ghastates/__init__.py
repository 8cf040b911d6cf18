"""Generalized Heisenberg algebra systems: spectra, truncated Fock
representations, coherent states, and uncertainty-product dynamics."""

from .algebra import (
    AlgebraRep,
    IdentityCheck,
    VerifyReport,
    build_rep,
    casimir,
    commutator,
    j0_from_ladder,
    verify_algebra,
)
from .config import load_key_values, parse_key_values, spectrum_from_config
from .dynamics import (
    ExpectationSet,
    UncertaintyTrace,
    evolve,
    expectations_oracle,
    expectations_series,
    peak_deviation,
    refined_extremum,
    trace,
    uncertainty,
    write_trace_csv,
)
from .series import MomentSeries, moment_series
from .spectrum import (
    CATALOG,
    EV,
    HBAR,
    MorsePhysicalParams,
    SpectrumModel,
    characteristic_fn,
    energy,
    from_table,
    harmonic,
    hydrogen,
    iterate_characteristic,
    ladder_coefficient,
    levels,
    make_spectrum,
    morse,
    morse_from_physical,
    next_energy,
    nilpotency_index,
    q_deformed,
    square_well,
    type1,
    type2,
)
from .states import (
    FockState,
    basis_state,
    closed_form_normalization,
    convergence_radius,
    eigenstate_residual,
    gha_coherent_state,
    klauder_continuity_check,
    linear_coherent_state,
    state_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraRep", "CATALOG", "EV", "ExpectationSet", "FockState", "HBAR",
    "IdentityCheck", "MomentSeries", "MorsePhysicalParams", "SpectrumModel",
    "UncertaintyTrace", "VerifyReport", "basis_state",
    "build_rep", "casimir", "characteristic_fn", "closed_form_normalization",
    "commutator", "convergence_radius", "eigenstate_residual", "energy",
    "evolve", "expectations_oracle", "expectations_series", "from_table",
    "gha_coherent_state", "harmonic", "hydrogen", "iterate_characteristic",
    "j0_from_ladder", "klauder_continuity_check", "ladder_coefficient",
    "levels", "linear_coherent_state", "load_key_values", "make_spectrum",
    "moment_series", "morse", "morse_from_physical", "next_energy",
    "nilpotency_index", "parse_key_values", "peak_deviation", "q_deformed",
    "refined_extremum", "spectrum_from_config", "square_well",
    "state_to_csv", "trace", "type1", "type2", "uncertainty",
    "verify_algebra", "write_trace_csv",
]
