"""Learners built on one shared contract: minimize case inconsistency.

Six learners (local smoothing, k-nearest, decision tree, naive Bayes,
margin classification, tube regression) plus plain absolute-loss
fitting all answer to the same description: pick baseline cases, pair
each with counterpart cases from the opposite source, score the
disagreement, fold the scores, and return the hypothesis with the
smallest total.  The :mod:`minconsist.oracle` module checks the
implementation against brute force from the outside.
"""

from .core import (
    Aggregation,
    BoxTooLarge,
    Case,
    ColumnKind,
    CounterpartSet,
    DimensionMismatch,
    DuplicateFeatureVector,
    EmptyLeaf,
    EmptyNeighborhood,
    EmptySet,
    ExhaustedRetries,
    FamilySpec,
    FeatureSchema,
    FeatureVector,
    Hypothesis,
    IncompatibleFamily,
    InconsistencyReport,
    InfeasibleSlack,
    InvalidParameter,
    KExceedsSampleSize,
    Learner,
    LinearHypothesis,
    MinconsistError,
    ModelFormatError,
    NominalKind,
    NonDisjointValueSets,
    NumericKind,
    OrdinalKind,
    Param,
    ParseError,
    PointwiseHypothesis,
    ProblemStatement,
    ReportEntry,
    SchemaMismatch,
    SolverDiverged,
    TrainingDataMismatch,
    TrainingSet,
    UnknownColumnKind,
    YKind,
    aggregate_mus,
    describe_hypothesis,
    erm_total_inconsistency,
    family_names,
    reencode_labels,
    require_labels,
    select_hypothesis,
    training_set,
)
from .pointwise import (
    FixedRadius,
    KNearest,
    NeighborhoodSpec,
    TransformedProblem,
    TreeConfig,
    TreeLeaf,
    TreeNode,
    TreePartition,
    distance,
    dtree_build,
    dtree_counterparts,
    dtree_predict,
    knn_predict,
    nb_predict,
    nb_transform,
    smoothing_case_inconsistency,
    smoothing_counterparts,
    smoothing_fit,
)
from .linear import (
    ErmLearner,
    HalfSpace,
    SlackVector,
    SvmLearner,
    SvmParams,
    SvrLearner,
    SvrParams,
    slack_feasible,
    squared_weight_norm,
    svm_case_inconsistency,
    svm_constrained_objective,
    svm_objective,
    svm_objective_subgradient,
    svm_objectives_agree,
    svm_report,
    svm_slack,
    svm_slack_is_feasible,
    svm_slack_is_minimal,
    svm_solve,
    svr_case_inconsistency,
    svr_objective,
    svr_objective_subgradient,
    svr_report,
    svr_solve,
    v_epsilon,
)
from .dataio import (
    Dataset,
    Model,
    load_dataset,
    load_dataset_for_model,
    load_model,
    load_queries,
    save_model,
)

__version__ = "0.1.0"

LEARNERS: dict[str, Learner] = {
    "svm": SvmLearner(),
    "svr": SvrLearner(),
    "erm": ErmLearner(),
}


def get_learner(family: str) -> Learner:
    """The registered learner for a family name."""
    try:
        return LEARNERS[family]
    except KeyError:
        raise InvalidParameter(
            f"no learner for family {family!r}; learners: {', '.join(sorted(LEARNERS))}"
        ) from None
