"""Survey estimation of rare binary totals with classifier scores as
auxiliary size measures."""

from .errors import (
    AllocationError,
    AuxcountError,
    CalibrationError,
    ConfigError,
    IngestionError,
    SweepError,
    UndefinedMetricError,
    VarianceUndefinedError,
)
from .population import (
    Frame,
    PROB_FLOOR,
    STRATUM_ONE,
    STRATUM_ZERO,
    clamp_probs,
    load_frame,
    read_header_fields,
    stratify_by_prediction,
    write_frame,
)
from .classifier_sim import (
    CalibrationResult,
    ConfusionCounts,
    QualityProfile,
    calibrate_profile,
    confusion_counts,
    f1_from_counts,
    population_loss,
    simulate_predictions,
)
from .designs import (
    ALLOCATION_RULES,
    AliasTable,
    DESIGN_PPS,
    DESIGN_SRS,
    EQUAL,
    NEYMAN_ORACLE,
    NEYMAN_PROXY,
    PROPORTIONAL,
    Sample,
    allocate,
    load_sample,
    pps_wr,
    srs_wor,
    write_sample,
)
from .estimators import (
    Estimate,
    UnderReport,
    census_estimate,
    confidence_interval,
    design_effect,
    difference_estimate,
    equivalent_srs_n,
    estimate_record,
    exact_hh_design_variance,
    hh_estimate,
    srs_estimate,
    srs_se_for_total,
    stratified_estimate,
    under_reporting,
)
from .f1_estimation import F1Inputs, delta_f1, estimate_f1_two_stratum, f1_gradient
from .montecarlo import (
    SimReport,
    SweepPoint,
    estimate_histogram,
    proposition1_sweep,
    replicate_rng,
    run_replications,
)

__version__ = "0.1.0"
