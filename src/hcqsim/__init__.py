"""hcqsim: deterministic simulator of a feedback-controlled hybrid-cloud
bottleneck link, with two-stage traffic classification, linear state-space
control, and a local-vs-hybrid database query experiment."""

from .control import (
    BoxBounds,
    ControlBounds,
    ControlDecision,
    CostWeights,
    ExcitationController,
    FixedShareController,
    IdentifiabilityError,
    InfeasibleControlSetError,
    MpcController,
    StabilityResult,
    StateSpaceModel,
    check_stability,
    identify_model,
    spectral_radius,
    structural_model,
)
from .hybriddb import (
    ArticleRecord,
    BackendLatency,
    Corpus,
    CorpusSpec,
    Protocol,
    QueryPlan,
    QueryResult,
    build_corpus,
    plan_query,
    run_experiment,
)
from .metrics import (
    ComparisonReport,
    Histogram,
    build_histogram,
    compare_modes,
    export_report,
)
from .netsim import (
    FeedbackMode,
    LinkSimulator,
    LinkSpec,
    SimMetrics,
    run_simulation,
)
from .traffic import (
    AppKind,
    ClassProfile,
    FlowEvent,
    SizeDistribution,
    Trace,
    TrafficClassLabel,
    TrafficProfile,
    Zone,
    ZoneClass,
    classify,
    classify_stage1,
    classify_stage2,
    generate_trace,
)

__version__ = "0.1.0"
