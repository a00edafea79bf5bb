"""Coherence quantifiers built on the Tsallis relative alpha entropy.

The package exposes the closed-form coherence family and its relatives,
the trace functional and divergence they descend from, state and channel
constructors with validation, and a randomized harness that stress-tests
the monotonicity, convexity, and contraction properties on sampled inputs.
"""

from .channels import (
    KrausChannel,
    SelectiveOutcome,
    apply_channel,
    dephasing_channel,
    is_incoherent,
    load_channel,
    random_channel,
    random_incoherent_channel,
    save_channel,
    select,
)
from .coherence import (
    CoherenceResult,
    alpha_diagonal,
    brute_force_min,
    c2_direct,
    coherence_alpha,
    l1_coherence,
    max_coherence,
    measure_value,
    optimal_incoherent_state,
    relative_entropy_coherence,
    skew_info_sum,
    tsallis_coherence,
)
from .divergence import (
    f_alpha,
    relative_entropy,
    sgn1,
    trace_functional,
    tsallis_divergence,
    validate_alpha,
    von_neumann_entropy,
)
from .harness import (
    TrialConfig,
    TrialRecord,
    ViolationReport,
    reverify_violation,
    run_suite,
    search_violation,
)
from .linalg import matrix_power, spectral_decompose
from .states import (
    dephase,
    embed_diagonal,
    load_state,
    maximally_coherent,
    random_density,
    random_pure,
    save_state,
    substream,
    validate_density,
)

__version__ = "0.1.0"

__all__ = [
    "CoherenceResult",
    "KrausChannel",
    "SelectiveOutcome",
    "TrialConfig",
    "TrialRecord",
    "ViolationReport",
    "alpha_diagonal",
    "apply_channel",
    "brute_force_min",
    "c2_direct",
    "coherence_alpha",
    "dephase",
    "dephasing_channel",
    "embed_diagonal",
    "f_alpha",
    "is_incoherent",
    "l1_coherence",
    "load_channel",
    "load_state",
    "matrix_power",
    "max_coherence",
    "maximally_coherent",
    "measure_value",
    "optimal_incoherent_state",
    "random_channel",
    "random_density",
    "random_incoherent_channel",
    "random_pure",
    "relative_entropy",
    "relative_entropy_coherence",
    "reverify_violation",
    "run_suite",
    "save_channel",
    "save_state",
    "search_violation",
    "select",
    "sgn1",
    "skew_info_sum",
    "spectral_decompose",
    "substream",
    "tsallis_coherence",
    "tsallis_divergence",
    "trace_functional",
    "validate_alpha",
    "validate_density",
    "von_neumann_entropy",
]
