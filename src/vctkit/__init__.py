"""Virtual clinical trials for CT body-composition models.

Procedural phantoms with analytic ground truth, Hounsfield-unit
densitometry, biased cohort construction, and the statistical audit that
separates in-distribution performance from out-of-distribution degradation.
"""

from .composition import CompositionReport, measure_composition
from .forest import Forest, ForestParams, fit_forest, predict, predict_proba
from .io import load_labelmap, load_volume, save_labelmap, save_volume
from .metrics import cohort_consistency, per_class_dice, qq_pearson
from .phantom import (
    AttributeDistribution,
    Attributes,
    CohortManifest,
    PhantomSpec,
    PhantomTruth,
    bin_attributes,
    generate_cohort,
    generate_matched_spec,
    generate_phantom,
    sample_cohort_specs,
)
from .rng import Stream, fnv1a64, subject_seed
from .skeleton import HeightBreakdown, measure_height
from .stats import bootstrap_ci, importance_weights, pearson, weighted_mae, z_score, z_test_p
from .trial import (
    BiasBoundary,
    BiasedSplit,
    MeasuredSubject,
    PredictorSpec,
    TrialConfig,
    TrialReport,
    attribute_errors,
    build_biased_split,
    fit_ood_classifier,
    generate_measured_cohort,
    rebias,
    run_full_vct,
    run_trial,
    synthesize_matched_cohort,
    weighted_degradation_estimate,
    write_trial_outputs,
)
from .volume import Grid, LabelMap, Volume

__version__ = "0.1.0"
