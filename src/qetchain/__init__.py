"""Energy teleportation on a periodic harmonic chain.

Gaussian ground-state construction, coherent-state measurement updates,
optimal displacement-energy extraction, and entanglement accounting.  The
independent general-dyne, Monte Carlo, and truncated-number-basis oracles
live in ``qetchain.oracle`` and the shared checks in ``qetchain.invariants``;
neither is re-exported here.

Importing the package and running the setting-1 and setting-2 sweeps need
only numpy: each function that calls ``scipy.linalg`` imports it in its own
body, so only ``run_setting2``, the size sweep, the dense quadratic
solves, the oracles and the CLI pay for loading it.
"""

from .chain_model import (
    ChainParams,
    correlation_submatrices,
    correlation_vectors,
    ground_covariance,
)
from .gaussian_state import (
    CovarianceMatrix,
    NumericsError,
    log_negativity,
    mutual_information,
    partial_transpose,
    reduce,
    symplectic_eigenvalues,
    von_neumann_entropy,
)
from .povm_measurement import (
    MeasurementSpec,
    OutcomeDistribution,
    build_m_matrix,
    outcome_distribution,
    post_measurement_covariance,
    sample_outcomes,
    unmeasured_sites,
)
from .qet_protocol import (
    DisplacementPlan,
    QetQuadratics,
    QetReport,
    build_quadratics,
    optimal_plan,
    optimized_energy,
    run_setting1,
    run_setting2,
)
from .experiment import (
    ALPHA_PRESETS,
    PowerLawFit,
    RunConfig,
    SweepTable,
    fit_power_law,
    resolve_alpha,
    sweep_setting1,
    sweep_setting2,
    sweep_size,
    write_csv,
)

__version__ = "0.1.0"
