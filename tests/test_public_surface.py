"""The package namespace holds the studies and the causal toolkit; every
other building block is imported from the module that owns it."""

import importlib
import pkgutil

import pytest

import confoundsim

PUBLIC = [
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

MODULES = sorted(info.name for info in pkgutil.iter_modules(confoundsim.__path__))


def test_package_exports_exactly_the_studies_and_the_toolkit():
    assert sorted(confoundsim.__all__) == PUBLIC


@pytest.mark.parametrize("name", ["confoundsim"] + [f"confoundsim.{m}" for m in MODULES])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(set(exports)) == len(exports)
    assert [e for e in exports if not hasattr(module, e)] == []
