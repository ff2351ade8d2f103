"""Diversity-fair online selection: offline max-min benchmarks, zero-loss
online dependent rounding, the fixed- and unknown-capacity policies, the
adversarial instance families, and a verification harness for the proven
competitive-ratio inequalities."""

from .benchmark import (
    IntSolution,
    LPResult,
    int_objective,
    opt_bounds,
    solve_fluid,
    solve_fluids,
    solve_int,
)
from .core import (
    EPS,
    AttributeVector,
    FractionalSolution,
    Instance,
    InstanceStats,
    Round,
    instance_stats,
    least_utility,
    marginals,
    parse_instance,
    serialize_instance,
    validate_feasibility,
)
from .fixed_policy import FixedPolicy, new_fixed_policy, run_fixed_policy
from .generators import gen_fcs, gen_fhc, gen_random
from .harness import (
    RunReport,
    VerificationVerdict,
    competitive_report,
    evaluate_policy,
    monte_carlo,
    verify_family,
    verify_instance,
)
from .rounding import RounderState, new_rounder, process_round
from .unknown_policy import UnknownPolicy, leftover_topup, run_unknown_policy, water_fill

__all__ = [
    "EPS",
    "AttributeVector",
    "FixedPolicy",
    "FractionalSolution",
    "Instance",
    "InstanceStats",
    "IntSolution",
    "LPResult",
    "RounderState",
    "Round",
    "RunReport",
    "UnknownPolicy",
    "VerificationVerdict",
    "competitive_report",
    "evaluate_policy",
    "gen_fcs",
    "gen_fhc",
    "gen_random",
    "instance_stats",
    "int_objective",
    "least_utility",
    "leftover_topup",
    "marginals",
    "monte_carlo",
    "new_fixed_policy",
    "new_rounder",
    "opt_bounds",
    "parse_instance",
    "process_round",
    "run_fixed_policy",
    "run_unknown_policy",
    "serialize_instance",
    "solve_fluid",
    "solve_fluids",
    "solve_int",
    "validate_feasibility",
    "verify_family",
    "verify_instance",
    "water_fill",
]

__version__ = "0.1.0"
