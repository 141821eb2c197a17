"""Asymmetric-hopping chains with quasi-periodic disorder.

Construction of single-particle and fixed-N many-body Hamiltonians,
biorthogonal spectral decompositions, point-gap winding numbers,
non-unitary time evolution (exact and Krylov), entanglement entropy,
and a parameter-sweep engine with a CLI front end.
"""

from .model import (
    BASIS_SIZE_CAP,
    THETA,
    FockBasis,
    HamiltonianMatrix,
    ModelParams,
    build_fock_basis,
    build_many_body,
    build_single_particle,
    potential,
)
from .spectral import (
    BiorthogonalizationError,
    SpectralDecomposition,
    cdw_order,
    decompose,
    density_profile,
    eigenvalues,
    ground_state,
    imag_fraction,
    ipr,
    ipr_per_state,
    static_observables,
)
from .winding import (
    WindingIllDefinedError,
    WindingResult,
    log_det_phase,
    winding_result,
)
from .dynamics import (
    EvolverConfig,
    ObservableSeries,
    arnoldi_step,
    entanglement_entropy,
    evolve_exact,
    initial_domain_wall,
    initial_localized,
    run,
)
from .sweep import (
    ResultRecord,
    SweepSpec,
    inclusive_range,
    run_sweep,
    run_sweep_to_file,
    write_records_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
