"""Sharp partial-identification bounds on counterfactual harm and benefit
for a binary treatment/outcome, with fusion of experimental and
natural-choice data and a mechanical checker for the concordance of
interventionist and counterfactual harm detection."""

from .bounds import (
    Interval,
    ate_bounds,
    benefit_bounds,
    cate_bounds,
    conditional_benefit_bounds,
    conditional_harm_bounds,
    harm_bounds,
    is_point_identified,
)
from .errors import (
    HarmboundsError,
    IncompatibleEvidence,
    MissingObservational,
    NullStratum,
    ParseError,
    ValidationError,
)
from .identification import (
    EvidenceSet,
    compatibility_check,
    identify_stratum_risks,
)
from .model import (
    ExperimentalParams,
    JointDistribution,
    ObservationalParams,
    demo_joint,
    observables_from_joint,
    sample_joint,
    true_estimands,
)
from .propositions import (
    check_prop1,
    check_prop2,
    check_prop3,
    check_prop4,
    counterfactual_verdict,
    interventionist_verdict,
    run_harness,
)
