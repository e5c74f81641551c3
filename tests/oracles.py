"""Independent oracles the test suite checks library results against.

Every helper recomputes a quantity the library produces, by a
deliberately different route: per-cell Newton iteration instead of the
closed-form log-odds, exhaustive joint-table marginalization instead of
graph traversal, pure-Python loops with ``math.exp`` instead of
vectorized einsums, central finite differences instead of analytic
gradients, raw-row tallies instead of fitted-model counts for the
support and standard error of a backdoor adjustment, one
``json.dumps`` per row instead of the keyed NDJSON formatter, a
REINFORCE loop that rebuilds its inputs every iteration and scatters
with ``np.add.at`` instead of the search that builds them once and
accumulates with ``bincount``, a row sampler that gathers a CDF per
row and caps each draw instead of counting entries of per-day lookup
tables, and a fit that encodes every training row and sums float
outcomes instead of summing out the integer cell tallies of a log.
It also keeps the point click and sale probabilities of an environment,
a one-context ``rng.choice`` action draw, the covariate draw
``sample_context`` with its capped inverse-CDF count, and the analytic
gradient of the factored-policy objective, ``exact_gradient``, which only
tests use.  The exact policy value, the visibility oracle and the
confounding gap are recomputed by nested loops over every context and
cell (``enum_policy_value``, ``enum_oracle_policy``,
``enum_confounding_gap``) instead of one einsum or one marginalisation.
Tests freeze oracle outputs as literals wherever the value is a single
number, so a regression in the oracle itself cannot mask a regression
in the library.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from confoundsim import FittedModel
from confoundsim.features import dim
from confoundsim.glm import TARGET_CLICK, TARGET_SALE_GIVEN_CLICK, prediction_table
from confoundsim.logs import ARM_LABELS
from confoundsim.numerics import sigmoid, softmax_rows
from confoundsim.policy import FactoredPolicyParams

LOGIT_CAP = 15.0


def capped_sigmoid(logit: float) -> float:
    """Logistic sigmoid with the library-wide +/-15 logit cap."""
    z = min(max(float(logit), -LOGIT_CAP), LOGIT_CAP)
    return 1.0 / (1.0 + math.exp(-z))


def newton_cell_logit(
    successes: float,
    trials: float,
    cap: float = LOGIT_CAP,
    tol: float = 1e-13,
    max_iter: int = 200,
) -> float:
    """Single-cell Bernoulli MLE logit via clipped Newton iteration.

    Maximizes ``k log sigma(b) + (n - k) log(1 - sigma(b))`` with
    ``k = successes`` and ``n = trials``.
    Boundary cells (k = 0 or k = n) walk monotonically to the cap, which
    is exactly the library's clipping convention; unvisited cells return
    zero.
    """
    k, n = successes, trials
    if n == 0:
        return 0.0
    beta = 0.0
    for _ in range(max_iter):
        p = 1.0 / (1.0 + math.exp(-beta))
        score = k - n * p
        curvature = n * p * (1.0 - p)
        nxt = min(max(beta + score / curvature, -cap), cap)
        if abs(nxt - beta) < tol:
            return nxt
        beta = nxt
    return beta


@dataclass(frozen=True)
class Interaction:
    """One logged impression, read back with Python scalars."""

    day: int
    x1: int
    x2: int
    a: int
    propensity: float
    c: int
    d: int | None = None
    s: int | None = None
    arm: str | None = None


def interaction(log, i: int) -> Interaction:
    """Row ``i`` of ``log``: ``d`` is None without a decision column, ``s``
    None when unobserved (-1 or no sale column) and ``arm`` the arm's
    letter ("" outside a split, None without an arm column)."""
    s = None if log.s is None else int(log.s[i])
    return Interaction(
        day=int(log.day[i]),
        x1=int(log.x1[i]),
        x2=int(log.x2[i]),
        a=int(log.a[i]),
        propensity=float(log.propensity[i]),
        c=int(log.c[i]),
        d=None if log.d is None else int(log.d[i]),
        s=None if s == -1 else s,
        arm=None if log.arm is None else ARM_LABELS[int(log.arm[i])],
    )


def group_outcomes(log, included, action_factors, target="click") -> dict:
    """Group a log's outcomes by raw covariate/action value tuples.

    Iterates interactions one by one and keys groups on the raw values
    instead of the library's mixed-radix cell index, so an indexing bug
    in the library cannot cancel out of a comparison.  ``sale_given_click``
    keeps only clicked rows and collects the sale bit.
    """
    groups: dict = {}
    for i in range(len(log)):
        rec = interaction(log, i)
        if target == "sale_given_click":
            if rec.c != 1:
                continue
            outcome = rec.s
        else:
            outcome = rec.c
        key = []
        if "x1" in included:
            key.append(rec.x1)
        if "x2" in included:
            key.append(rec.x2)
        if "a" in action_factors:
            key.append(rec.a)
        if "d" in action_factors:
            key.append(rec.d)
        groups.setdefault(tuple(key), []).append(int(outcome))
    return groups


def newton_fit(log, included, action_factors, target="click") -> dict:
    """Per-cell Newton MLE over raw-tuple groups: key tuple -> logit."""
    groups = group_outcomes(log, included, action_factors, target)
    return {
        key: newton_cell_logit(sum(bits), len(bits))
        for key, bits in groups.items()
    }


def subcell_tallies(log):
    """One pass over a log's raw rows, keyed on raw value tuples.

    Returns ``(cells, contexts)``: ``cells`` maps ``(x1, x2, a)`` to
    ``[rows, clicks]`` and ``contexts`` maps ``(x1, x2)`` to its rows.
    """
    cells: dict = {}
    contexts: dict = {}
    for x1, x2, a, c in zip(log.x1.tolist(), log.x2.tolist(), log.a.tolist(), log.c.tolist()):
        tally = cells.setdefault((x1, x2, a), [0, 0])
        tally[0] += 1
        tally[1] += c
        contexts[(x1, x2)] = contexts.get((x1, x2), 0) + 1
    return cells, contexts


def adjustment_support(tallies, k2: int, x1: int, a: int, alpha: float = 0.5) -> dict:
    """Support, positivity gaps and standard error of the backdoor
    adjustment at ``(x1, a)``, from :func:`subcell_tallies` alone.

    The covariate weights are the ``alpha``-smoothed row frequencies at
    ``x1`` and each subcell prediction is the capped Newton MLE, so no
    fitted model is consulted.  A gap is an x2 state seen at ``x1`` whose
    ``(x1, x2, a)`` subcell is empty (every state if ``x1`` is unseen);
    ``se`` is NaN when there is a gap, else the delta-method error with
    the ``(k + 1) / (n + 2)`` rate in the binomial term.
    """
    cells, contexts = tallies
    seen = [contexts.get((x1, j), 0) for j in range(k2)]
    total = sum(seen)
    support = [cells.get((x1, j, a), [0, 0])[0] for j in range(k2)]
    gaps = tuple(j for j in range(k2) if support[j] == 0 and (seen[j] > 0 or total == 0))
    if gaps:
        return {"support": tuple(support), "gaps": gaps, "se": math.nan}
    weights = [(seen[j] + alpha) / (total + k2 * alpha) for j in range(k2)]
    within = mean = second = 0.0
    for j in range(k2):
        n, k = cells.get((x1, j, a), [0, 0])
        mu = capped_sigmoid(newton_cell_logit(k, n))
        mean += weights[j] * mu
        second += weights[j] * mu * mu
        if n > 0:
            rate = (k + 1) / (n + 2)
            within += weights[j] ** 2 * rate * (1 - rate) / n
    return {
        "support": tuple(support),
        "gaps": gaps,
        "se": math.sqrt(within + max(second - mean * mean, 0.0) / total),
    }


def dag_joint_table(nodes, edges, rng, n_states: int = 2) -> np.ndarray:
    """Exact joint table of a DAG with random Dirichlet conditionals.

    Returns an array of shape ``(n_states,) * len(nodes)`` whose axes
    follow ``nodes`` order.  Each node gets an independent conditional
    distribution per parent assignment, drawn flat-Dirichlet from ``rng``,
    so d-connected variables are dependent except on a measure-zero set
    of draws.
    """
    nodes = list(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    parents = {v: sorted(t for t, h in edges if h == v) for v in nodes}
    cpts = {}
    for v in nodes:
        rows = {}
        for combo in itertools.product(range(n_states), repeat=len(parents[v])):
            rows[combo] = rng.dirichlet(np.ones(n_states))
        cpts[v] = rows
    joint = np.zeros((n_states,) * len(nodes))
    for assignment in itertools.product(range(n_states), repeat=len(nodes)):
        p = 1.0
        for v in nodes:
            combo = tuple(assignment[index[t]] for t in parents[v])
            p *= cpts[v][combo][assignment[index[v]]]
        joint[assignment] = p
    return joint


def conditionally_independent(joint, axes_x, axes_y, axes_z, tol: float = 1e-12) -> bool:
    """Set conditional independence X and Y given Z on an exact joint.

    Marginalizes onto the named axes, flattens each group into a single
    axis, and checks ``P(x, y | z) = P(x | z) P(y | z)`` for every ``z``
    with positive mass, to ``tol`` in absolute difference.
    """
    keep = list(axes_x) + list(axes_y) + list(axes_z)
    drop = tuple(i for i in range(joint.ndim) if i not in keep)
    margin = joint.sum(axis=drop) if drop else joint
    order = sorted(keep)
    margin = np.moveaxis(margin, [order.index(i) for i in keep], range(len(keep)))
    nx = int(np.prod([margin.shape[i] for i in range(len(axes_x))])) if axes_x else 1
    ny = int(np.prod([margin.shape[len(axes_x) + i] for i in range(len(axes_y))])) if axes_y else 1
    table = margin.reshape(nx, ny, -1)
    worst = 0.0
    for z in range(table.shape[2]):
        mass = table[:, :, z].sum()
        if mass <= 0.0:
            continue
        pxy = table[:, :, z] / mass
        px = pxy.sum(axis=1, keepdims=True)
        py = pxy.sum(axis=0, keepdims=True)
        worst = max(worst, float(np.abs(pxy - px * py).max()))
    return worst <= tol


def central_difference(f, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (f(hi) - f(lo)) / (2.0 * step)
    return grad


def enum_policy_ctr(gt, probs) -> float:
    """Expected CTR by explicit nested loops over every cell."""
    probs = np.asarray(probs)
    total = 0.0
    for i in range(gt.spec.k1):
        for j in range(gt.spec.k2):
            w = float(gt.p_x1[i]) * float(gt.p_x2_given_x1[i, j])
            if probs.ndim == 4:
                for a in range(gt.spec.n_actions):
                    for d in range(gt.spec.n_decisions):
                        total += w * float(probs[i, j, a, d]) * capped_sigmoid(
                            gt.click_logit[i, j, a, d]
                        )
            else:
                for a in range(gt.spec.n_actions):
                    total += w * float(probs[i, j, a]) * capped_sigmoid(
                        gt.click_logit[i, j, a]
                    )
    return total


def enum_click_sale_rate(gt, probs) -> float:
    """Expected click-and-sale rate by explicit nested loops."""
    total = 0.0
    for i in range(gt.spec.k1):
        for j in range(gt.spec.k2):
            w = float(gt.p_x1[i]) * float(gt.p_x2_given_x1[i, j])
            for a in range(gt.spec.n_actions):
                total += (
                    w
                    * float(probs[i, j, a])
                    * capped_sigmoid(gt.click_logit[i, j, a])
                    * capped_sigmoid(gt.sale_logit[i, j, a])
                )
    return total


def enum_policy_value(gt, probs, reward) -> float:
    """Expected reward ``sum p(x1, x2) pi(cell | x1, x2) reward[x1, x2, cell]`` by nested loops."""
    total = 0.0
    for i in range(gt.spec.k1):
        for j in range(gt.spec.k2):
            w = float(gt.p_x1[i]) * float(gt.p_x2_given_x1[i, j])
            for cell in itertools.product(*(range(n) for n in gt.spec.cell_shape[2:])):
                total += w * float(probs[i, j][cell]) * float(reward[i, j][cell])
    return total


def _click_list(gt, i, j) -> list:
    """Capped click probabilities of context ``(i, j)`` in flat action-cell order."""
    return [capped_sigmoid(v) for v in np.ravel(gt.click_logit[i, j]).tolist()]


def _first_argmax(values) -> int:
    best = 0
    for c, v in enumerate(values):
        if v > values[best]:
            best = c
    return best


def enum_oracle_policy(gt, visibility) -> list:
    """Best flat action cell per ``(x1, x2)``, as nested lists, for a visibility.

    Each visible context scores every cell by ``p(x1, x2) sigmoid(logit)``
    summed over the contexts that share its visible covariates, and takes
    the lowest-index argmax.
    """
    k1, k2 = gt.spec.k1, gt.spec.k2
    best = [[0] * k2 for _ in range(k1)]
    for i in range(k1):
        for j in range(k2):
            score = [0.0] * gt.spec.action_cells
            for p in range(k1):
                for q in range(k2):
                    if ("x1" in visibility and p != i) or ("x2" in visibility and q != j):
                        continue
                    w = float(gt.p_x1[p]) * float(gt.p_x2_given_x1[p, q])
                    for c, click in enumerate(_click_list(gt, p, q)):
                        score[c] += w * click
            best[i][j] = _first_argmax(score)
    return best


def enum_confounding_gap(gt) -> float:
    """Confounding gap by loops: per x1, the interventional best cell against
    the best cell of the naive estimate an x2-aware greedy log implies."""
    gaps = []
    for i in range(gt.spec.k1):
        w = [float(v) for v in gt.p_x2_given_x1[i]]
        clicks = [_click_list(gt, i, j) for j in range(gt.spec.k2)]
        cells = range(gt.spec.action_cells)
        marginal = [sum(w[j] * clicks[j][c] for j in range(gt.spec.k2)) for c in cells]
        greedy = [_first_argmax(row) for row in clicks]
        naive = list(marginal)
        for c in cells:
            chosen = [j for j in range(gt.spec.k2) if greedy[j] == c]
            denom = sum(w[j] for j in chosen)
            if denom > 0:
                naive[c] = sum(w[j] * clicks[j][c] for j in chosen) / denom
        gaps.append(max(marginal) - marginal[_first_argmax(naive)])
    return max(gaps)


def enum_factored_objective(table, weights, pi_action, pi_decision, grid_a, grid_d) -> float:
    """Factored-policy objective by explicit quadruple loops.

    ``table`` holds the model probability per ``(x1, x2, a, d)`` cell,
    ``weights`` the covariate probability per ``(x1, x2)``, and the two
    policy factors are indexed through their context-row grids.
    """
    k1, k2, n_a, n_d = table.shape
    total = 0.0
    for i in range(k1):
        for j in range(k2):
            for a in range(n_a):
                for d in range(n_d):
                    total += (
                        float(weights[i, j])
                        * float(pi_action[grid_a[i, j], a])
                        * float(pi_decision[grid_d[i, j], d])
                        * float(table[i, j, a, d])
                    )
    return total


def best_deterministic_factored(table, weights, grid_a, grid_d, rows_a, rows_d) -> float:
    """Exhaustive optimum over deterministic factored policies.

    Enumerates every assignment of one action per action-context row and
    one decision per decision-context row and returns the best exact
    objective.  Only feasible for tiny instances.
    """
    k1, k2, n_a, n_d = table.shape
    best = -math.inf
    for acts in itertools.product(range(n_a), repeat=rows_a):
        for decs in itertools.product(range(n_d), repeat=rows_d):
            total = 0.0
            for i in range(k1):
                for j in range(k2):
                    total += float(weights[i, j]) * float(
                        table[i, j, acts[grid_a[i, j]], decs[grid_d[i, j]]]
                    )
            best = max(best, total)
    return best


def true_click_prob(gt, x1, x2, a, d=None):
    """Exact click probability of the mechanism (capped sigmoid of the logit)."""
    if gt.spec.n_decisions is None:
        if d is not None:
            raise ValueError("environment has no decision axis")
        return sigmoid(gt.click_logit[x1, x2, a])
    if d is None:
        raise ValueError("two-decision environment requires d")
    return sigmoid(gt.click_logit[x1, x2, a, d])


def true_sale_prob(gt, x1, x2, a):
    """Exact post-click sale probability."""
    if gt.sale_logit is None:
        raise ValueError("environment has no sale mechanism")
    return sigmoid(gt.sale_logit[x1, x2, a])


def sample_action(policy, x1: int, x2: int, rng: np.random.Generator, size=None):
    """Draw actions and their propensities for one context with ``rng.choice``.

    Returns ``(a, propensity)`` or, for joint policies, ``(a, d, propensity)``.
    With ``size`` given, the components are arrays.
    """
    flat = policy.cell_probs()[x1, x2]
    cells = flat.shape[0]
    idx = rng.choice(cells, size=size, p=flat)
    prop = flat[idx]
    if size is None:
        idx, prop = int(idx), float(prop)
    if policy.spec.n_decisions is not None:
        a, d = np.divmod(idx, policy.spec.n_decisions)
        if size is None:
            return int(a), int(d), prop
        return a, d, prop
    return idx, prop


def ndjson_reference(log) -> str:
    """NDJSON export by the per-row route: one ``json.dumps`` per row.

    Each record is built from the raw columns with Python scalars and
    serialized with ``json.dumps(..., sort_keys=True)``.  ``d`` is written
    whenever the log has the column, ``s`` unless it is -1, and ``arm`` as
    its letter unless the code is -1.
    """
    arm_letters = {0: "A", 1: "B"}
    lines = []
    for i in range(len(log)):
        record = {
            "day": int(log.day[i]),
            "x1": int(log.x1[i]),
            "x2": int(log.x2[i]),
            "a": int(log.a[i]),
            "propensity": float(log.propensity[i]),
            "c": int(log.c[i]),
        }
        if log.d is not None:
            record["d"] = int(log.d[i])
        if log.s is not None and int(log.s[i]) != -1:
            record["s"] = int(log.s[i])
        if log.arm is not None and int(log.arm[i]) != -1:
            record["arm"] = arm_letters[int(log.arm[i])]
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines)


def inverse_cdf(cdf_rows, u):
    """Column drawn by each uniform ``u[...]`` from its CDF row ``cdf_rows[..., :]``.

    ``cdf_rows`` carries one CDF along its last axis per entry of ``u``.
    The draw is the number of CDF entries strictly below the uniform, capped
    at the last column so rounding in the final entry never runs off the
    row.
    """
    return np.minimum((cdf_rows < u[..., None]).sum(axis=-1), cdf_rows.shape[-1] - 1)


def sample_context(gt, rng: np.random.Generator, size=None):
    """Draw ``(x1, x2)`` from the covariate mechanism.

    With ``size`` given (an int or a shape tuple), both are arrays of that
    shape.
    """
    x1 = rng.choice(gt.spec.k1, size=size, p=gt.p_x1)
    if size is None:
        x2 = rng.choice(gt.spec.k2, p=gt.p_x2_given_x1[x1])
        return int(x1), int(x2)
    return x1, inverse_cdf(np.cumsum(gt.p_x2_given_x1, axis=1)[x1], rng.random(size))


def simulate_chunk_reference(gt, policy, u: np.ndarray):
    """One chunk of ``run_day`` rows by the per-row-CDF route.

    Gathers each row's x2 and action-cell CDF rows, caps every draw at
    the last column, and applies the sigmoid to gathered logits.  Returns
    ``(x1, x2, a, d, propensity, c, s)`` in the sampler's native dtypes
    (int64 covariates and actions), before ``run_day``'s cast to the log's
    code type.
    """
    spec = gt.spec
    cdf1 = np.cumsum(gt.p_x1)
    x1 = np.minimum(np.searchsorted(cdf1, u[:, 0], side="right"), spec.k1 - 1)
    x2 = inverse_cdf(np.cumsum(gt.p_x2_given_x1, axis=1)[x1], u[:, 1])
    cell_probs = policy.cell_probs()[x1, x2]
    cell = inverse_cdf(np.cumsum(cell_probs, axis=1), u[:, 2])
    propensity = cell_probs[np.arange(len(cell)), cell]
    if spec.n_decisions is None:
        a, d = cell, None
        p_click = sigmoid(gt.click_logit[x1, x2, a])
    else:
        a, d = np.divmod(cell, spec.n_decisions)
        p_click = sigmoid(gt.click_logit[x1, x2, a, d])
    c = (u[:, 3] < p_click).astype(np.int8)
    s = None
    if gt.sale_logit is not None:
        p_sale = sigmoid(gt.sale_logit[x1, x2, a])
        s = np.where(c == 1, (u[:, 4] < p_sale).astype(np.int8), np.int8(-1))
    return x1, x2, a, d, propensity, c, s


def _reference_objective(model, params, gt) -> float:
    ctx_a, ctx_d = params.context_grids()
    pi_a = softmax_rows(params.action_logits)[ctx_a]
    pi_d = softmax_rows(params.decision_logits)[ctx_d]
    table = prediction_table(model)
    return float(np.einsum("ij,ija,ijd,ijad->", gt.covariate_weights, pi_a, pi_d, table))


def exact_gradient(model, params, gt):
    """Analytic gradient of ``exact_objective`` in both heads' logits.

    For a softmax head the derivative in logit (c, a) is
    ``sum over contexts x in c of w(x) pi(a | c) (mbar(x, a) - V(x))``
    where ``mbar`` marginalises the reward table over the other head and
    ``V`` is the context value.  Returns ``(g_action, g_decision)`` with
    the same shapes as the logit matrices.
    """
    ctx_a, ctx_d = params.context_grids()
    pi_a = softmax_rows(params.action_logits)[ctx_a]
    pi_d = softmax_rows(params.decision_logits)[ctx_d]
    table = prediction_table(model)
    weights = gt.covariate_weights[:, :, None]
    mbar_a = np.einsum("ijd,ijad->ija", pi_d, table)
    mbar_d = np.einsum("ija,ijad->ijd", pi_a, table)
    value = np.einsum("ija,ija->ij", pi_a, mbar_a)[:, :, None]
    g_action = np.zeros_like(params.action_logits)
    g_decision = np.zeros_like(params.decision_logits)
    np.add.at(g_action, ctx_a, weights * pi_a * (mbar_a - value))
    np.add.at(g_decision, ctx_d, weights * pi_d * (mbar_d - value))
    return g_action, g_decision


def _reference_sample_rows(p_rows, u):
    cdf = np.cumsum(p_rows, axis=1)
    return np.minimum((cdf < u[:, None]).sum(axis=1), p_rows.shape[1] - 1)


def estimate_gradient_reference(model, params, gt, rng, batch_size, baseline_value=0.0):
    """One REINFORCE batch by the per-batch route.

    Rebuilds the reward table, context grids and covariate CDF, gathers a
    softmax row per sample and takes its CDF, and scatters the score terms
    with ``np.add.at``.  Draws context, action and decision uniforms in
    that order.  Returns ``(g_action, g_decision, batch_mean_reward)``.
    """
    spec = params.spec
    table = prediction_table(model)
    ctx_a, ctx_d = params.context_grids()
    weight_cdf = np.cumsum(gt.covariate_weights.ravel())
    flat = np.minimum(
        np.searchsorted(weight_cdf, rng.random(batch_size), side="right"),
        spec.k1 * spec.k2 - 1,
    )
    x1, x2 = np.divmod(flat, spec.k2)
    rows_a = ctx_a[x1, x2]
    rows_d = ctx_d[x1, x2]
    pi_a = softmax_rows(params.action_logits)[rows_a]
    pi_d = softmax_rows(params.decision_logits)[rows_d]
    a = _reference_sample_rows(pi_a, rng.random(batch_size))
    d = _reference_sample_rows(pi_d, rng.random(batch_size))
    rewards = table[x1, x2, a, d]
    advantage = rewards - baseline_value
    score_a = -pi_a
    score_a[np.arange(batch_size), a] += 1.0
    score_d = -pi_d
    score_d[np.arange(batch_size), d] += 1.0
    g_action = np.zeros_like(params.action_logits)
    g_decision = np.zeros_like(params.decision_logits)
    np.add.at(g_action, rows_a, advantage[:, None] * score_a)
    np.add.at(g_decision, rows_d, advantage[:, None] * score_d)
    g_action /= batch_size
    g_decision /= batch_size
    return g_action, g_decision, float(rewards.mean())


def reinforce_reference(model, init, config, gt):
    """Stochastic ascent by the per-iteration route.

    Every iteration runs :func:`estimate_gradient_reference` and rebuilds
    and validates a ``FactoredPolicyParams``; the trace rows recompute
    the exact objective from scratch.  Same settings, RNG, guard and trace
    format as ``reinforce_optimize``.
    """
    params = FactoredPolicyParams(
        init.spec, init.action_context, init.decision_context,
        init.action_logits.copy(), init.decision_logits.copy(),
    )
    start = _reference_objective(model, params, gt)
    rng = np.random.default_rng(config.seed)
    baseline = 0.0
    have_baseline = False
    trace = None
    if config.trace_path is not None:
        trace = open(config.trace_path, "w", encoding="utf-8")
        trace.write("iteration,exact_objective,gradient_norm\n")
    try:
        for iteration in range(config.iterations):
            use_baseline = baseline if (config.baseline == "running-mean" and have_baseline) else 0.0
            g_action, g_decision, batch_mean = estimate_gradient_reference(
                model, params, gt, rng, config.batch_size, baseline_value=use_baseline
            )
            params = FactoredPolicyParams(
                spec=params.spec,
                action_context=params.action_context,
                decision_context=params.decision_context,
                action_logits=params.action_logits + config.learning_rate * g_action,
                decision_logits=params.decision_logits + config.learning_rate * g_decision,
            )
            if not (np.all(np.isfinite(params.action_logits)) and np.all(np.isfinite(params.decision_logits))):
                raise RuntimeError("policy search diverged: non-finite logits")
            if config.baseline == "running-mean":
                if have_baseline:
                    baseline = config.baseline_decay * baseline + (1.0 - config.baseline_decay) * batch_mean
                else:
                    baseline = batch_mean
                    have_baseline = True
            if trace is not None:
                norm = float(np.sqrt((g_action ** 2).sum() + (g_decision ** 2).sum()))
                objective = _reference_objective(model, params, gt)
                trace.write(f"{iteration},{objective!r},{norm!r}\n")
    finally:
        if trace is not None:
            trace.close()
    final = _reference_objective(model, params, gt)
    if not np.isfinite(final) or final < start - 1e-6:
        raise RuntimeError(
            f"policy search failed to hold its ground: objective {start:.6f} -> {final:.6f}"
        )
    return params


def _training_arrays(log, feature_spec, target):
    """Encoded cell index and float outcome of each training row."""
    if len(log) == 0:
        raise ValueError("cannot fit on an empty log slice")
    if target == TARGET_CLICK:
        rows = log
        outcome = log.c.astype(np.float64)
    elif target == TARGET_SALE_GIVEN_CLICK:
        if log.s is None:
            raise ValueError("log has no sale outcomes; cannot fit a sale model")
        rows = log._take(log.c == 1)
        if len(rows) == 0:
            raise ValueError("no clicked records; cannot fit a sale-given-click model")
        outcome = rows.s.astype(np.float64)
    else:
        raise ValueError(f"target must be one of {(TARGET_CLICK, TARGET_SALE_GIVEN_CLICK)}")
    # The cell index by its own loop, not the library's encode, which
    # glm.tally shares: the two fit routes index cells independently.
    values = {"x1": rows.x1, "x2": rows.x2, "a": rows.a, "d": rows.d}
    idx = np.zeros(len(rows), dtype=np.int64)
    for name in feature_spec.factors:
        card = feature_spec.spec.cardinality(name)
        col = values[name]
        if col is None:
            raise ValueError(f"action factor {name!r} is required by this feature spec")
        if np.any((col < 0) | (col >= card)):
            raise ValueError(f"{name} out of range [0, {card})")
        idx = idx * card + col
    return idx, outcome


def fit_reference(log, feature_spec, target=TARGET_CLICK):
    """Saturated MLE by the row route: encode every training row, then
    ``bincount`` the trials and the float-weighted successes per cell."""
    idx, outcome = _training_arrays(log, feature_spec, target)
    size = dim(feature_spec)
    trials = np.bincount(idx, minlength=size)
    n = trials.astype(np.float64)
    k = np.bincount(idx, weights=outcome, minlength=size)
    beta = np.zeros(size, dtype=np.float64)
    visited = n > 0
    p = k[visited] / n[visited]
    with np.errstate(divide="ignore"):
        beta[visited] = np.clip(np.log(p) - np.log1p(-p), -LOGIT_CAP, LOGIT_CAP)
    return FittedModel(
        feature_spec=feature_spec,
        beta=beta,
        target=target,
        training_day_range=(int(log.day.min()), int(log.day.max())),
        n_train=int(len(outcome)),
        trials=trials,
        successes=k,
    )


def log_likelihood(model, log) -> float:
    """Bernoulli log-likelihood of the model's target on a log slice."""
    idx, outcome = _training_arrays(log, model.feature_spec, model.target)
    p = sigmoid(model.beta[idx])
    return float(np.sum(outcome * np.log(p) + (1.0 - outcome) * np.log1p(-p)))


def gradient(model, log) -> np.ndarray:
    """Gradient of :func:`log_likelihood` in ``beta``: with one-hot
    features, the per-cell sum of ``outcome - p``."""
    idx, outcome = _training_arrays(log, model.feature_spec, model.target)
    p = sigmoid(model.beta[idx])
    return np.bincount(idx, weights=outcome - p, minlength=dim(model.feature_spec))
