"""Feature-layout tests: dimensions, one-hot encoding, bijectivity."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confoundsim import CategoricalSpec, FeatureSpec
from confoundsim.features import context_count, context_index, dim, encode

SPEC_5_5_10 = CategoricalSpec(k1=5, k2=5, n_actions=10)


def hot_index(feature_spec, x1, x2, a, d=None):
    """Hot coordinate of the sparse one-hot encoding, with sanity checks."""
    idx = encode(feature_spec, x1, x2, a, d)
    assert isinstance(idx, int)
    assert 0 <= idx < dim(feature_spec)
    return idx


class TestDim:
    def test_x1_cross_action(self):
        assert dim(FeatureSpec(("x1",), ("a",), SPEC_5_5_10)) == 50

    def test_full_covariates_cross_action(self):
        assert dim(FeatureSpec(("x1", "x2"), ("a",), SPEC_5_5_10)) == 250

    def test_action_only(self):
        assert dim(FeatureSpec((), ("a",), SPEC_5_5_10)) == 10

    def test_two_decision(self):
        spec = CategoricalSpec(k1=5, k2=5, n_actions=10, n_decisions=2)
        assert dim(FeatureSpec(("x1", "x2"), ("a", "d"), spec)) == 500


class TestEncode:
    def test_mixed_radix_x1_action(self):
        spec = CategoricalSpec(k1=2, k2=2, n_actions=2)
        fs = FeatureSpec(("x1",), ("a",), spec)
        assert hot_index(fs, x1=0, x2=0, a=1) == 1

    def test_mixed_radix_full(self):
        spec = CategoricalSpec(k1=2, k2=2, n_actions=2)
        fs = FeatureSpec(("x1", "x2"), ("a",), spec)
        assert hot_index(fs, x1=1, x2=0, a=1) == 5

    def test_every_cell_bijective(self):
        spec = CategoricalSpec(k1=2, k2=2, n_actions=2)
        fs = FeatureSpec(("x1", "x2"), ("a",), spec)
        seen = {
            hot_index(fs, x1, x2, a)
            for x1, x2, a in itertools.product(range(2), range(2), range(2))
        }
        assert seen == set(range(8))

    def test_one_hot_always(self):
        """The dense expansion of any encoding sums to exactly one."""
        fs = FeatureSpec(("x1", "x2"), ("a",), SPEC_5_5_10)
        vec = np.zeros(dim(fs))
        vec[encode(fs, 4, 3, 9)] = 1.0
        assert vec.sum() == 1

    def test_vectorized_encoding_matches_scalar(self):
        fs = FeatureSpec(("x1", "x2"), ("a",), SPEC_5_5_10)
        x1 = np.array([0, 1, 4])
        x2 = np.array([3, 0, 2])
        a = np.array([9, 5, 0])
        got = encode(fs, x1, x2, a)
        expected = [encode(fs, *row) for row in zip(x1, x2, a)]
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize(
        "x1, x2, a, name", [(1.5, 2, 3, "x1"), (1, 2.0, np.array([3.25]), "a"), (np.nan, 0, 0, "x1")]
    )
    def test_non_integral_float_rejected(self, x1, x2, a, name):
        fs = FeatureSpec(("x1", "x2"), ("a",), SPEC_5_5_10)
        with pytest.raises(ValueError, match=f"{name} must hold integral values"):
            encode(fs, x1, x2, a)

    def test_integral_floats_index_as_integers(self):
        fs = FeatureSpec(("x1", "x2"), ("a",), SPEC_5_5_10)
        assert encode(fs, 1.0, np.float32(2), 3) == encode(fs, 1, 2, 3) == 73
        np.testing.assert_array_equal(context_index(("x1",), SPEC_5_5_10, np.array([0.0, 4.0]), 0), [0, 4])
        with pytest.raises(ValueError, match="x1 must hold integral values"):
            context_index(("x1",), SPEC_5_5_10, np.array([0.7]), 0)

    def test_excluded_covariate_ignored(self):
        fs = FeatureSpec(("x1",), ("a",), SPEC_5_5_10)
        assert hot_index(fs, 2, 0, 7) == hot_index(fs, 2, 4, 7)

    @pytest.mark.parametrize("included", [(), ("x1",), ("x2",), ("x1", "x2")])
    @pytest.mark.parametrize("action_factors", [("a",), ("d",), ("a", "d")])
    def test_sparse_grids_broadcast_to_the_dense_encoding(self, included, action_factors):
        spec = CategoricalSpec(k1=3, k2=4, n_actions=5, n_decisions=2)
        fs = FeatureSpec(included, action_factors, spec)
        sparse = encode(fs, *np.indices(spec.cell_shape, sparse=True))
        dense = encode(fs, *np.indices(spec.cell_shape))
        assert dense.dtype == np.int64 and dense.shape == spec.cell_shape
        np.testing.assert_array_equal(np.broadcast_to(sparse, spec.cell_shape), dense)

    def test_out_of_range_rejected(self):
        fs = FeatureSpec(("x1",), ("a",), SPEC_5_5_10)
        with pytest.raises(ValueError):
            encode(fs, 5, 0, 0)
        with pytest.raises(ValueError):
            encode(fs, 0, 0, 10)


@settings(max_examples=40, deadline=None)
@given(
    k1=st.integers(2, 10),
    k2=st.integers(2, 10),
    n_actions=st.integers(2, 10),
    use_x1=st.booleans(),
    use_x2=st.booleans(),
)
def test_encode_bijection_property(k1, k2, n_actions, use_x1, use_x2):
    """encode maps the cell grid onto exactly the coordinate range."""
    spec = CategoricalSpec(k1=k1, k2=k2, n_actions=n_actions)
    included = tuple(
        name for name, flag in (("x1", use_x1), ("x2", use_x2)) if flag
    )
    fs = FeatureSpec(included, ("a",), spec)
    indices = {
        hot_index(fs, x1, x2, a)
        for x1 in range(k1 if use_x1 else 1)
        for x2 in range(k2 if use_x2 else 1)
        for a in range(n_actions)
    }
    assert indices == set(range(dim(fs)))


class TestValidation:
    def test_action_factors_required(self):
        with pytest.raises(ValueError):
            FeatureSpec(("x1",), (), SPEC_5_5_10)

    def test_unknown_factor_rejected(self):
        with pytest.raises(ValueError):
            FeatureSpec(("x3",), ("a",), SPEC_5_5_10)

    def test_decision_factor_needs_decision_spec(self):
        with pytest.raises(ValueError):
            FeatureSpec(("x1",), ("a", "d"), SPEC_5_5_10)

    @pytest.mark.parametrize(
        "field, value",
        [("k1", 1), ("n_actions", 1), ("n_decisions", 1), ("k1", True), ("k2", 2.0), ("n_decisions", True),
         ("n_decisions", 2.0)],
    )
    def test_spec_cardinality_bounds(self, field, value):
        with pytest.raises(ValueError, match=field):
            CategoricalSpec(**{"k1": 5, "k2": 5, "n_actions": 10, field: value})

    def test_spec_accepts_numpy_integers(self):
        spec = CategoricalSpec(k1=np.int64(3), k2=3, n_actions=np.int32(2), n_decisions=np.int64(3))
        assert spec.cell_shape == (3, 3, 2, 3)

    def test_canonical_factor_order(self):
        fs = FeatureSpec(("x2", "x1"), ("a",), SPEC_5_5_10)
        assert fs.included == ("x1", "x2")


class TestContextHelpers:
    def test_context_count(self):
        assert context_count((), SPEC_5_5_10) == 1
        assert context_count(("x1",), SPEC_5_5_10) == 5
        assert context_count(("x1", "x2"), SPEC_5_5_10) == 25

    def test_context_index_matches_mixed_radix(self):
        assert context_index(("x1", "x2"), SPEC_5_5_10, 3, 2) == 17
        assert context_index(("x2",), SPEC_5_5_10, 3, 2) == 2
        assert context_index((), SPEC_5_5_10, 3, 2) == 0
