"""Graphical identification checks and backdoor adjustment.

``d_separated`` implements the classic reduction: iteratively prune leaf
nodes outside the query sets (leaving the ancestral closure), delete the
edges leaving conditioned nodes, and test undirected reachability
(Shachter 1998, "Bayes-Ball"; Darwiche 2009, ch. 4).  Graphs here are a
handful of named nodes, so clarity wins over asymptotics, and every
verdict is cross-checked in the test suite against a brute-force
conditional-independence oracle on exact factorized joint tables.

``backdoor_admissible`` applies Pearl's criterion: the adjustment set may
not contain a descendant of the treatment and must block every path into
the treatment.  ``unblocked_backdoor_path`` produces the witness path
used in diagnostics (e.g. ``a <- x2 -> c``).

``backdoor_adjust`` returns the adjusted estimate together with the
per-x2 training support behind it, the x2 states whose subcell the log
never visited (positivity gaps, which leave the estimate undefined
rather than imputed), and a delta-method standard error.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .features import CategoricalSpec, encode
from .glm import FittedModel, tally
from .logs import Log
from .numerics import sigmoid

__all__ = [
    "AdjustedEstimate",
    "CovModel",
    "Dag",
    "backdoor_adjust",
    "backdoor_admissible",
    "backdoor_paths",
    "base_click_dag",
    "d_separated",
    "fit_cov_model",
    "format_path",
    "parse_dag",
    "unblocked_backdoor_path",
]


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over named nodes."""

    nodes: tuple
    edges: frozenset

    def __init__(self, nodes, edges):
        nodes = tuple(dict.fromkeys(nodes))
        edges = frozenset((str(u), str(v)) for u, v in edges)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        known = set(nodes)
        for u, v in edges:
            if u not in known or v not in known:
                raise ValueError(f"edge ({u!r}, {v!r}) uses an unknown node")
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
        self._assert_acyclic()

    def _assert_acyclic(self) -> None:
        indeg = {n: 0 for n in self.nodes}
        for _, v in self.edges:
            indeg[v] += 1
        queue = deque(n for n, k in indeg.items() if k == 0)
        seen = 0
        while queue:
            u = queue.popleft()
            seen += 1
            for v in self.children(u):
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if seen != len(self.nodes):
            raise ValueError("edge list contains a cycle")

    def parents(self, node) -> set:
        return {u for u, v in self.edges if v == node}

    def children(self, node) -> set:
        return {v for u, v in self.edges if u == node}

    def descendants(self, node) -> set:
        """All nodes reachable from ``node`` (excluding itself)."""
        out, queue = set(), deque([node])
        while queue:
            for v in self.children(queue.popleft()):
                if v not in out:
                    out.add(v)
                    queue.append(v)
        return out

    def drop_outgoing(self, nodes) -> "Dag":
        keep = frozenset((u, v) for u, v in self.edges if u not in set(nodes))
        return Dag(self.nodes, keep)


def parse_dag(text: str) -> Dag:
    """Parse an edge list, one ``u -> v`` per line; ``#`` starts a comment.

    Bare node names on a line of their own declare isolated nodes.
    """
    nodes, edges = [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            left, _, right = line.partition("->")
            u, v = left.strip(), right.strip()
            if not u or not v or "->" in v:
                raise ValueError(f"malformed edge line {raw!r}")
            nodes.extend([u, v])
            edges.append((u, v))
        else:
            if any(ch.isspace() for ch in line):
                raise ValueError(f"malformed line {raw!r}")
            nodes.append(line)
    if not nodes:
        raise ValueError("empty edge list")
    return Dag(nodes, edges)


def _validate_query(g: Dag, *groups) -> list:
    known = set(g.nodes)
    sets = []
    for group in groups:
        s = frozenset(str(n) for n in group)
        unknown = s - known
        if unknown:
            raise ValueError(f"unknown node names {sorted(unknown)}")
        sets.append(s)
    return sets


def d_separated(g: Dag, xs, ys, zs=()) -> bool:
    """True iff every path between ``xs`` and ``ys`` is blocked given ``zs``.

    ``xs`` and ``ys`` must be nonempty and the three sets pairwise disjoint.
    """
    xs, ys, zs = _validate_query(g, xs, ys, zs)
    if not xs or not ys:
        raise ValueError("query sets must be nonempty")
    if xs & ys or xs & zs or ys & zs:
        raise ValueError("query sets must be pairwise disjoint")
    keep = xs | ys | zs
    parents = {n: g.parents(n) for n in g.nodes}
    children = {n: g.children(n) for n in g.nodes}
    # Prune barren leaves: what is left is the ancestral closure of the query.
    alive = set(g.nodes)
    queue = deque(n for n in alive if not children[n] and n not in keep)
    while queue:
        n = queue.popleft()
        if n not in alive:
            continue
        alive.discard(n)
        for p in parents[n]:
            children[p].discard(n)
            if p in alive and not children[p] and p not in keep:
                queue.append(p)
    # Conditioning cuts the edges leaving zs; then any undirected connection
    # between xs and ys is an active trail.
    adjacency = {n: set() for n in alive}
    for u in alive:
        for v in children[u]:
            if v in alive and u not in zs:
                adjacency[u].add(v)
                adjacency[v].add(u)
    queue = deque(xs & alive)
    reached = set(queue)
    while queue:
        u = queue.popleft()
        if u in ys:
            return False
        for v in adjacency[u]:
            if v not in reached:
                reached.add(v)
                queue.append(v)
    return True


def backdoor_paths(g: Dag, treatment: str, outcome: str) -> list:
    """All simple paths from treatment to outcome that start with an
    incoming edge, ordered by (length, node sequence)."""
    (ts,) = _validate_query(g, [treatment])
    (os_,) = _validate_query(g, [outcome])
    if treatment == outcome:
        raise ValueError("treatment and outcome must differ")
    neighbours = {n: sorted(g.parents(n) | g.children(n)) for n in g.nodes}
    paths = []

    def walk(path):
        u = path[-1]
        if u == outcome:
            paths.append(tuple(path))
            return
        for v in neighbours[u]:
            if v not in path:
                walk(path + [v])

    for first in sorted(g.parents(treatment)):
        walk([treatment, first])
    paths.sort(key=lambda p: (len(p), p))
    return paths


def _path_blocked(g: Dag, path, zs) -> bool:
    zs = set(zs)
    for i in range(1, len(path) - 1):
        prev_in = (path[i - 1], path[i]) in g.edges
        next_in = (path[i + 1], path[i]) in g.edges
        collider = prev_in and next_in
        if collider:
            if path[i] not in zs and not (g.descendants(path[i]) & zs):
                return True
        elif path[i] in zs:
            return True
    return False


def unblocked_backdoor_path(g: Dag, treatment: str, outcome: str, zs=()):
    """Shortest backdoor path left open by ``zs``, or ``None``."""
    (zset,) = _validate_query(g, zs)
    for path in backdoor_paths(g, treatment, outcome):
        if not _path_blocked(g, path, zset):
            return path
    return None


def format_path(g: Dag, path) -> str:
    """Render a path with edge directions, e.g. ``a <- x2 -> c``."""
    parts = [path[0]]
    for u, v in zip(path, path[1:]):
        parts.append("->" if (u, v) in g.edges else "<-")
        parts.append(v)
    return " ".join(parts)


def backdoor_admissible(g: Dag, treatment: str, outcome: str, zs=()) -> bool:
    """Pearl's backdoor criterion for adjustment set ``zs``.

    ``zs`` must contain no descendant of the treatment, and must d-separate
    treatment from outcome in the graph with the treatment's outgoing edges
    removed (equivalently: block every backdoor path).  A ``zs`` that holds
    the treatment or the outcome raises ``ValueError`` before any other check.
    """
    xs, ys, zset = _validate_query(g, [treatment], [outcome], zs)
    if treatment == outcome:
        raise ValueError("treatment and outcome must differ")
    if outcome in zset or treatment in zset:
        raise ValueError("adjustment set must exclude treatment and outcome")
    if zset & g.descendants(treatment):
        return False
    return d_separated(g.drop_outgoing([treatment]), xs, ys, zset)


def base_click_dag(x2_to_action: bool = False) -> Dag:
    """The environment's causal graph over ``x1, x2, a, c``.

    ``x2_to_action=True`` adds the edge an x2-aware policy introduces,
    opening the backdoor path ``a <- x2 -> c``.
    """
    edges = [("x1", "a"), ("x1", "c"), ("x1", "x2"), ("x2", "c"), ("a", "c")]
    if x2_to_action:
        edges.append(("x2", "a"))
    return Dag(("x1", "x2", "a", "c"), edges)


@dataclass
class CovModel:
    """Estimated covariate mechanism ``p(x2 | x1)`` with raw counts."""

    p_x2_given_x1: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.p_x2_given_x1 = np.asarray(self.p_x2_given_x1, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.p_x2_given_x1.shape != self.counts.shape or self.p_x2_given_x1.ndim != 2:
            raise ValueError("p_x2_given_x1 and counts must share a (k1, k2) shape")
        rows = self.p_x2_given_x1.sum(axis=1)
        if np.any(self.p_x2_given_x1 < 0) or np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValueError("rows of p_x2_given_x1 must be probability vectors")


def fit_cov_model(log: Log, spec: CategoricalSpec) -> CovModel:
    """Estimate ``p(x2 | x1)`` from a log slice by smoothed counting.

    Every cell gets a fixed pseudo-count of 0.5, so a row with no
    observations comes out uniform.
    """
    if len(log) == 0:
        raise ValueError("cannot fit a covariate model on an empty log slice")
    counts = tally(log, spec).impressions.reshape(spec.k1, spec.k2, -1).sum(axis=-1)
    smoothed = counts + 0.5
    return CovModel(p_x2_given_x1=smoothed / smoothed.sum(axis=1, keepdims=True), counts=counts)


@dataclass(frozen=True)
class AdjustedEstimate:
    """A backdoor-adjusted CTR with the support and uncertainty behind it.

    Attributes
    ----------
    value : float
        ``sum_j p(x2=j | x1) P(c | x1, j, a)``; NaN when ``gaps`` is nonempty.
    se : float
        Delta-method standard error of ``value``; NaN when ``value`` is, or
        when the model carries no training counts.
    support : tuple of int or None
        Training rows in each ``(x1, x2=j, a)`` subcell, or ``None`` for a
        model without counts.
    gaps : tuple of int
        x2 states seen at ``x1`` whose subcell holds no training row (every
        state when ``x1`` itself was never seen).
    """

    value: float
    se: float
    support: tuple | None
    gaps: tuple


def backdoor_adjust(full_model: FittedModel, cov: CovModel, x1: int, a: int, d=None) -> AdjustedEstimate:
    """Backdoor-adjusted interventional CTR estimate for ``(x1, a)``.

    Sums the full model's conditional prediction over x2, weighted by the
    estimated covariate mechanism.  The model must include both covariates;
    adjusting with a model blind to x2 is exactly the naive estimate the
    adjustment exists to correct, so it is rejected.

    When the model carries training counts (every model :func:`fit`
    returns does), an x2 state seen at ``x1`` whose ``(x1, x2, a)`` subcell
    is empty is a positivity gap: the log says nothing about the action
    there, so the estimate is NaN instead of averaging in the unvisited
    cell's default one half.  States never seen at ``x1`` hold only the
    covariate model's smoothing mass and keep their default prediction.
    On supported cells the standard error is

        se^2 = sum_j w_j^2 p_j (1 - p_j) / n_j
               + (sum_j w_j mu_j^2 - (sum_j w_j mu_j)^2) / N_x1

    with ``w`` the covariate weights, ``mu`` the predictions, ``n_j`` the
    subcell rows (the first sum runs over visited subcells), ``N_x1`` the
    covariate model's rows at ``x1``, and ``p_j = (k_j + 1) / (n_j + 2)``
    so that a thin subcell with rate 0 or 1 does not report zero variance.
    """
    if "x2" not in full_model.feature_spec.included or "x1" not in full_model.feature_spec.included:
        raise ValueError("backdoor adjustment requires a model that includes x1 and x2")
    k2 = full_model.feature_spec.spec.k2
    if cov.p_x2_given_x1.shape[1] != k2:
        raise ValueError("covariate model shape does not match the feature spec")
    idx = encode(
        full_model.feature_spec, np.full(k2, x1), np.arange(k2), np.full(k2, a),
        None if d is None else np.full(k2, d),
    )
    preds = sigmoid(full_model.beta[idx])
    weights = cov.p_x2_given_x1[x1]
    value = float(weights @ preds)
    if full_model.trials is None:
        return AdjustedEstimate(value=value, se=math.nan, support=None, gaps=())
    n = full_model.trials[idx]
    seen = cov.counts[x1]
    n_x1 = int(seen.sum())
    unsupported = (n == 0) & (seen > 0) if n_x1 > 0 else np.ones(k2, dtype=bool)
    support = tuple(int(v) for v in n)
    gaps = tuple(int(j) for j in np.flatnonzero(unsupported))
    if gaps:
        return AdjustedEstimate(value=math.nan, se=math.nan, support=support, gaps=gaps)
    visited = n > 0
    rate = (full_model.successes[idx][visited] + 1.0) / (n[visited] + 2.0)
    within = float(np.sum(weights[visited] ** 2 * rate * (1.0 - rate) / n[visited]))
    between = (float(weights @ preds**2) - value**2) / n_x1
    return AdjustedEstimate(
        value=value, se=math.sqrt(within + max(between, 0.0)), support=support, gaps=gaps
    )

