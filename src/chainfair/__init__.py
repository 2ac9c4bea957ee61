"""Mean-field fairness model of a chain of 802.11 sender-receiver pairs.

The chain couples each pair's emission probability to its neighbors'
silence; this package solves the resulting fixed-point system, optimizes
the entropy fairness index over the access intensity alpha, maps alpha to
802.11b packet sizes, fits alpha to measured traces, and cross-checks the
mean-field answer against a slot-level stochastic simulation.
"""

from .asymptotics import (
    circle_backoff_mc,
    flat_value,
    ring_fixed_point,
)
from .errors import ChainFairError, ConvergenceError, DomainError, FitError
from .fairness import (
    J,
    J_prime,
    OptResult,
    maximize_J,
    sweep_J,
)
from .fit import (
    ThroughputTrace,
    compare_normalized,
    fit_alpha,
    read_trace_csv,
)
from .model import (
    ChainParams,
    apply_F,
    entropy,
    jacobian_bands,
)
from .sim import (
    MarginalEstimate,
    SimConfig,
    exact_stationary,
    meanfield_gap,
    simulate,
)
from .solver import (
    SolveOptions,
    contraction_check,
    fixed_point_solve,
    newton_solve,
    residual,
)
from .timing import (
    FrameSpec,
    MacTiming,
    alpha_of_packet,
    packet_for_alpha,
    t_send,
    t_wait,
)

__version__ = "0.1.0"

__all__ = [
    "ChainFairError",
    "ChainParams",
    "ConvergenceError",
    "DomainError",
    "FitError",
    "FrameSpec",
    "J",
    "J_prime",
    "MacTiming",
    "MarginalEstimate",
    "OptResult",
    "SimConfig",
    "SolveOptions",
    "ThroughputTrace",
    "alpha_of_packet",
    "apply_F",
    "circle_backoff_mc",
    "compare_normalized",
    "contraction_check",
    "entropy",
    "exact_stationary",
    "fit_alpha",
    "fixed_point_solve",
    "flat_value",
    "jacobian_bands",
    "maximize_J",
    "meanfield_gap",
    "newton_solve",
    "packet_for_alpha",
    "read_trace_csv",
    "residual",
    "ring_fixed_point",
    "simulate",
    "sweep_J",
    "t_send",
    "t_wait",
]
