"""HARQ reliability, throughput and delay analysis in the finite-blocklength regime."""

from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    HarqFblError,
    ResourceLimitError,
    ValidationFailure,
)
from .fbl import (
    DEFAULT_KERNEL,
    LOG2E_SQ,
    CodeParams,
    KernelOptions,
    TransmissionRecord,
    channel_dispersion,
    db_to_linear,
    linear_to_db,
    per_cc,
    per_ir,
    q_function,
)
from .outcomes import (
    HarqConfig,
    OutcomeDistribution,
    Scheme,
    outcome_on,
    outcomes_awgn,
    throughput,
)
from .fsmc import (
    FsmcModel,
    build_equal_duration,
    build_fixed_sojourn,
    from_target_c,
    level_crossing_rate,
    marginal_probability,
    state_snr,
)
from .fading import (
    FadingOutcomeQuery,
    outcomes_fading,
)
from .delay import (
    DelayPmf,
    binomial_stream_delay,
    overhead_ccdf,
    single_packet_delay,
    stream_delay,
)
from .optimize import (
    COARSE_TAU_GRID,
    FINE_TAU_GRID,
    OptimizationProblem,
    OptimizationReport,
    at_snr,
    optimize_tau1,
    optimize_tau12,
    sweep,
)
from .montecarlo import (
    FadingTrace,
    SimResult,
    TraceChannel,
    generate_trace,
    simulate_harq,
    validate_fsmc,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
