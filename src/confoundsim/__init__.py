"""Simulation toolkit for confounding in logged-feedback recommender loops.

The package models a categorical contextual-bandit environment with two
covariates, saturated logistic models fit on daily logs, epsilon-greedy
deployment, and the causal machinery (graph queries, backdoor adjustment,
factored policy search) needed to diagnose and repair the feedback loops
those pieces create.
"""

from .causal import (
    backdoor_adjust,
    backdoor_admissible,
    backdoor_paths,
    base_click_dag,
    d_separated,
    fit_cov_model,
    format_path,
    parse_dag,
)
from .environment import (
    make_default_ground_truth,
    make_separable_ground_truth,
    marginal_click_prob,
)
from .features import CategoricalSpec, FeatureSpec
from .glm import FittedModel, fit, prediction_table
from .policy import epsilon_greedy
from .policy_search import (
    SearchConfig,
    estimate_gradient,
    exact_objective,
    reinforce_optimize,
)
from .scenarios import (
    ScenarioConfig,
    run_day,
    scenario_ab_test,
    scenario_click_sale,
    scenario_feature_engineering,
    scenario_two_decision,
)
from .streams import DayStream

__version__ = "0.1.0"

__all__ = [
    "CategoricalSpec",
    "DayStream",
    "FeatureSpec",
    "FittedModel",
    "ScenarioConfig",
    "SearchConfig",
    "backdoor_adjust",
    "backdoor_admissible",
    "backdoor_paths",
    "base_click_dag",
    "d_separated",
    "epsilon_greedy",
    "estimate_gradient",
    "exact_objective",
    "fit",
    "fit_cov_model",
    "format_path",
    "make_default_ground_truth",
    "make_separable_ground_truth",
    "marginal_click_prob",
    "parse_dag",
    "prediction_table",
    "reinforce_optimize",
    "run_day",
    "scenario_ab_test",
    "scenario_click_sale",
    "scenario_feature_engineering",
    "scenario_two_decision",
]
