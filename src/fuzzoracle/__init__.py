"""fuzzoracle: a black-box verdict on reinforcement-learning programs.

The library trains the program under test against randomly generated
intended policies, rewards it for fuzzy compliance with each, and judges
the program Buggy or NonBuggy from the trend and post-convergence
stability of its per-epoch compliance series.
"""

from .agents import (
    BUG_REGISTRY,
    AgentConfig,
    BugDescriptor,
    LinearActorCriticAgent,
    TabularQAgent,
    inject_bug,
    make_agent,
)
from .compliance import (
    ComplianceSeries,
    EpochTrace,
    RunLog,
    TraceStep,
    fuzzy_reward,
    make_reward_fn,
    policy_compliance_series,
    step_compliance,
    step_compliance_at,
)
from .envs import (
    DOWN,
    LEFT,
    RIGHT,
    UP,
    EnvSpec,
    GridSpec,
    HillCarSpec,
    Transition,
    env_reset,
    env_step,
    native_reward,
)
from .errors import (
    ActionKindMismatchError,
    AlgorithmEnvMismatchError,
    DuplicateReferenceStateError,
    EmptyCorpusError,
    EmptyLogError,
    EmptyMatrixError,
    FuzzOracleError,
    InapplicableBugError,
    InvalidActionError,
    InvalidEnvSpecError,
    InvalidMembershipError,
    InvalidStateError,
    InvalidWindowError,
    NumericalDivergenceError,
    PolicyTooLargeError,
    PolicyTooSmallError,
    SamplingExhaustedError,
    SeriesTooShortError,
    TraceFormatError,
    UnknownBugError,
)
from .evaluation import (
    ClassificationMetrics,
    ConfusionMatrix,
    ProgramRecord,
    confusion_at,
    confusion_metrics,
    roc_sweep,
)
from .membership import MembershipShape
from .oracle import (
    OracleConfig,
    PolicyOutcome,
    Verdict,
    assemble_verdict,
    generate_policies,
    judge_programs,
    oracle_main,
    oracle_policies,
    run_training_phase,
)
from .policy import IntendedPolicy, min_reference_distance
from .spaces import BoxSpace, DiscreteSpace, GridSpace
from .trend import TrendParams, TrendReport, convergence_start, linreg_slope, trend_analysis

__version__ = "0.1.0"

__all__ = [
    "AgentConfig",
    "BUG_REGISTRY",
    "BoxSpace",
    "BugDescriptor",
    "ClassificationMetrics",
    "ComplianceSeries",
    "ConfusionMatrix",
    "DiscreteSpace",
    "EnvSpec",
    "EpochTrace",
    "GridSpace",
    "GridSpec",
    "HillCarSpec",
    "IntendedPolicy",
    "LinearActorCriticAgent",
    "MembershipShape",
    "OracleConfig",
    "PolicyOutcome",
    "ProgramRecord",
    "RunLog",
    "TabularQAgent",
    "TraceStep",
    "Transition",
    "TrendParams",
    "TrendReport",
    "Verdict",
    "assemble_verdict",
    "confusion_at",
    "confusion_metrics",
    "convergence_start",
    "env_reset",
    "env_step",
    "fuzzy_reward",
    "generate_policies",
    "inject_bug",
    "judge_programs",
    "linreg_slope",
    "make_agent",
    "make_reward_fn",
    "min_reference_distance",
    "native_reward",
    "oracle_main",
    "oracle_policies",
    "policy_compliance_series",
    "roc_sweep",
    "run_training_phase",
    "step_compliance",
    "step_compliance_at",
    "trend_analysis",
    "LEFT",
    "DOWN",
    "RIGHT",
    "UP",
]
