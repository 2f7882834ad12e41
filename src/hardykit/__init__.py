"""hardykit: numerics for weighted Hardy inequalities of Kolmogorov-type
operators with inverse-square potentials."""

__version__ = "0.1.0"

from .weights import (  # noqa: F401
    Kind,
    RadialBump,
    RadialGrid,
    WeightFamily,
    eval_mu,
    log_derivatives,
    surface_measure,
    weighted_integral,
)
from .hardy import (  # noqa: F401
    HardyProfile,
    HypothesisReport,
    c0,
    check_hypotheses,
    compute_profile,
    compute_U,
    compute_Umu,
    estimate_N0,
)
from .spectral import (  # noqa: F401
    RayleighResult,
    SweepResult,
    assemble,
    critical_sweep,
    ground_state,
    improved_hardy_slack,
    lambda1,
    phi_gamma_ladder,
    quotient_phi_gamma,
    quotient_phi_n,
    weighted_vs_flat_crosscheck,
)
from .evolution import (  # noqa: F401
    Envelope,
    EvolutionRun,
    dichotomy_verdict,
    fit_envelope,
    run_capped,
)
