"""Categorical universe and one-hot cross features.

A :class:`CategoricalSpec` fixes the cardinality of every factor in play:
two categorical covariates ``x1`` and ``x2``, an action ``a`` and, in
two-decision environments, a second decision ``d``.  A
:class:`FeatureSpec` selects which covariates a model may see and which
action factors it scores; the cross of the selected factors is encoded as
a single one-hot index (sparse representation: the index of the only
nonzero coordinate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _check_count

__all__ = [
    "COVARIATE_FACTORS",
    "ACTION_FACTORS",
    "CategoricalSpec",
    "FeatureSpec",
    "context_count",
    "context_index",
    "dim",
    "encode",
]

# Canonical factor order; mixed-radix encoding is most-significant first.
COVARIATE_FACTORS = ("x1", "x2")
ACTION_FACTORS = ("a", "d")


def _canonical_subset(subset, universe, label):
    subset = tuple(subset)
    for name in subset:
        if name not in universe:
            raise ValueError(f"unknown {label} factor {name!r}; expected subset of {universe}")
    if len(set(subset)) != len(subset):
        raise ValueError(f"duplicate {label} factor in {subset}")
    return tuple(name for name in universe if name in subset)


def _subset_text(subset) -> str:
    """Text form of a covariate subset: ``"x1+x2"``, or ``"none"`` when empty."""
    return "+".join(subset) or "none"


def _covariate_union(*subsets) -> tuple:
    """Covariates named in any of ``subsets``, in canonical order."""
    return _canonical_subset(set().union(*subsets), COVARIATE_FACTORS, "covariate")


@dataclass(frozen=True)
class CategoricalSpec:
    """Cardinalities of the categorical universe.

    Parameters
    ----------
    k1, k2 : int
        Number of states of the covariates ``x1`` and ``x2``.
    n_actions : int
        Number of actions ``a``.
    n_decisions : int or None
        Number of states of the second decision ``d``; ``None`` outside
        two-decision environments.
    """

    k1: int
    k2: int
    n_actions: int
    n_decisions: int | None = None

    def __post_init__(self):
        for name in ("k1", "k2", "n_actions") + (() if self.n_decisions is None else ("n_decisions",)):
            _check_count(name, getattr(self, name), 2)

    def cardinality(self, factor: str) -> int:
        if factor == "x1":
            return self.k1
        if factor == "x2":
            return self.k2
        if factor == "a":
            return self.n_actions
        if factor == "d":
            if self.n_decisions is None:
                raise ValueError("spec has no decision factor 'd'")
            return self.n_decisions
        raise ValueError(f"unknown factor {factor!r}")

    @property
    def action_cells(self) -> int:
        """Number of joint action cells (``n_actions`` times ``n_decisions``)."""
        return self.n_actions * (self.n_decisions or 1)

    @property
    def cell_shape(self) -> tuple:
        """Shape ``(k1, k2, n_actions[, n_decisions])`` of a per-cell table."""
        shape = (self.k1, self.k2, self.n_actions)
        return shape if self.n_decisions is None else shape + (self.n_decisions,)

    def to_dict(self) -> dict:
        return {
            "k1": int(self.k1),
            "k2": int(self.k2),
            "n_actions": int(self.n_actions),
            "n_decisions": None if self.n_decisions is None else int(self.n_decisions),
        }


@dataclass(frozen=True)
class FeatureSpec:
    """Which covariates a model sees and which action factors it scores.

    ``included`` may be any subset of ``("x1", "x2")`` including the empty
    tuple; ``action_factors`` must be a nonempty subset of ``("a", "d")``.
    Both are normalised to canonical order on construction.
    """

    included: tuple
    action_factors: tuple
    spec: CategoricalSpec

    def __post_init__(self):
        included = _canonical_subset(self.included, COVARIATE_FACTORS, "covariate")
        actions = _canonical_subset(self.action_factors, ACTION_FACTORS, "action")
        if not actions:
            raise ValueError("action_factors must be nonempty")
        if "d" in actions and self.spec.n_decisions is None:
            raise ValueError("action factor 'd' requires a spec with n_decisions")
        object.__setattr__(self, "included", included)
        object.__setattr__(self, "action_factors", actions)

    @property
    def factors(self) -> tuple:
        return self.included + self.action_factors


def context_count(included, spec: CategoricalSpec) -> int:
    """Number of distinct covariate contexts for an ``included`` subset."""
    included = _canonical_subset(included, COVARIATE_FACTORS, "covariate")
    count = 1
    for name in included:
        count *= spec.cardinality(name)
    return count


def context_index(included, spec: CategoricalSpec, x1, x2):
    """Mixed-radix index of the visible covariate context.

    Accepts scalars or integer arrays, broadcast against ``x1``; covariates
    outside ``included`` are ignored, so models blind to a factor are invariant to it.
    """
    included = _canonical_subset(included, COVARIATE_FACTORS, "covariate")
    return _mixed_radix(spec, included, {"x1": x1, "x2": x2})


def dim(feature_spec: FeatureSpec) -> int:
    """Length of the one-hot cross-feature vector."""
    size = 1
    for name in feature_spec.factors:
        size *= feature_spec.spec.cardinality(name)
    return size


def encode(feature_spec: FeatureSpec, x1, x2, a, d=None):
    """Index of the single nonzero coordinate of the cross feature.

    Parameters
    ----------
    feature_spec : FeatureSpec
    x1, x2, a, d : int or ndarray
        Factor values, broadcast against ``x1``; ``d`` is required exactly when
        ``'d'`` is an action factor.  Scalars give an ``int``; arrays an int64 array.

    Returns
    -------
    int or ndarray
        Mixed-radix index, most-significant factor first in the canonical
        order ``(x1, x2, a, d)`` restricted to the selected factors.
    """
    return _mixed_radix(feature_spec.spec, feature_spec.factors, {"x1": x1, "x2": x2, "a": a, "d": d})


def _mixed_radix(spec: CategoricalSpec, names, values: dict):
    """Mixed-radix index of the factors ``names`` (canonical order, most
    significant first) taking ``values[name]``, accumulated in place in int64
    from zeros of the broadcast shape of ``x1`` and the named factors: an
    ``int`` for scalar inputs."""
    idx = np.zeros(np.broadcast(*(values[n] for n in ("x1", *names))).shape, np.int64)
    for name in names:
        card = spec.cardinality(name)
        v = values[name]
        if v is None:
            raise ValueError(f"action factor {name!r} is required by this feature spec")
        v = np.asarray(v)
        if v.size and (v.min() < 0 or v.max() >= card):
            raise ValueError(f"{name} out of range [0, {card})")
        # Only float inputs can carry a fraction; integer paths skip this pass.
        if v.dtype.kind == "f" and not np.array_equal(v, np.trunc(v)):
            raise ValueError(f"{name} must hold integral values")
        idx *= card
        # Cast unsafely so integral float or uint64 values index as integers.
        np.add(idx, v, out=idx, casting="unsafe")
    return int(idx) if idx.ndim == 0 else idx
