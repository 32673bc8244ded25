"""Multimode survey design simulation: samples, estimators, variances,
and a Monte Carlo harness for web-push designs with face-to-face
follow-up."""

__version__ = "0.1.0"

from .designtools import (
    clustering_deff,
    composite_effective_n,
    expected_completes,
    holt_m_prime,
    kish_weighting_deff,
    plan_three_designs,
)
from .estimators import (
    CompositeFactors,
    EstimatorResult,
    composite_total,
    compute_factors,
    followup_adjustment,
    sample_stats,
    uniform_adjustment,
    web_composite,
    web_only,
)
from .montecarlo import DesignSpec, EstimatorSpec, ScenarioSpec, run_scenario, summarize
from .population import (
    MicrodataSchema,
    Population,
    SyntheticPopSpec,
    VariableSpec,
    build_pseudopopulation,
    generate_synthetic,
    load_microdata,
)
from .response import collect, response_rates
from .sampling import (
    DrawnSample,
    followup_all_units,
    pps_select_psus,
    srswor,
    subsample_nonrespondents_units,
    subsample_psus,
    two_stage_select,
)
from .variance import build_variance_units, confidence_interval

__all__ = [name for name in dir() if not name.startswith("_")]
