"""In-memory span tracer installed around confoundsim's public functions.

Each wrapped function records a span ``(name, start, end, parent, op)``.
Wrappers are installed at every place a caller looks the function up: a
module-level function is replaced in every ``confoundsim`` module whose
namespace holds it (``prediction_table`` sits in ``glm``, ``policy``,
``policy_search``, ``scenarios`` and the package itself), and a method is
replaced on its class.  :meth:`Tracer.restore` puts every original back.

A span's self time is its duration minus the durations of its direct
children.  There is one thread, so children never overlap and the self
times of an op's spans partition the time its root spans cover.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

import confoundsim.logs as logs
import confoundsim.policy as policy
import confoundsim.streams as streams

# Layers are confoundsim's modules.  causal (no scenario calls it),
# numerics (a leaf called from everywhere) and fixtures (seed lists) are
# left unmeasured on purpose.
LAYERS = (
    "streams", "scenarios", "logs", "glm", "features",
    "environment", "policy", "policy_search", "cli",
)

# Span name -> (module, function) for module-level functions.
FUNCTIONS = {
    "scenarios.run_day": ("scenarios", "run_day"),
    "scenarios.scenario_feature_engineering": ("scenarios", "scenario_feature_engineering"),
    "scenarios.scenario_ab_test": ("scenarios", "scenario_ab_test"),
    "scenarios.scenario_two_decision": ("scenarios", "scenario_two_decision"),
    "glm.fit": ("glm", "fit"),
    "glm.prediction_table": ("glm", "prediction_table"),
    "features.encode": ("features", "encode"),
    "policy.epsilon_greedy": ("policy", "epsilon_greedy"),
    "policy_search.reinforce_optimize": ("policy_search", "reinforce_optimize"),
    "policy_search.estimate_gradient": ("policy_search", "estimate_gradient"),
    "policy_search.exact_objective": ("policy_search", "exact_objective"),
    "environment.make_default_ground_truth": ("environment", "make_default_ground_truth"),
    "environment.confounding_gap": ("environment", "confounding_gap"),
    "environment.expected_policy_ctr": ("environment", "expected_policy_ctr"),
    "environment.oracle_policy": ("environment", "oracle_policy"),
    "cli.main": ("cli", "main"),
}

# Span name -> (class, attribute) for methods, wrapped on the class.
METHODS = {
    "streams.uniforms": (streams.DayStream, "uniforms"),
    "logs.validate": (logs.Log, "__post_init__"),
    "logs.concat": (logs.Log, "concat"),
    "logs.to_ndjson": (logs.Log, "to_ndjson"),
    "policy.factored_validate": (policy.FactoredPolicyParams, "__post_init__"),
}


# Span name -> rows of work one call did, for the spans that count rows.
ROWS = {
    "streams.uniforms": lambda args, kwargs, result: int(args[2] if len(args) > 2 else kwargs["count"]),
    "scenarios.run_day": lambda args, kwargs, result: int(args[2] if len(args) > 2 else kwargs["n"]),
    "logs.validate": lambda args, kwargs, result: len(args[0]),
    "logs.concat": lambda args, kwargs, result: len(result),
    "logs.to_ndjson": lambda args, kwargs, result: len(args[0]),
    "glm.fit": lambda args, kwargs, result: len(args[0]),
}


class Tracer:
    """Records spans and row counts for the wrapped functions."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.rows = Counter()
        self.ndjson_bytes = 0
        self.exported_nbytes = 0  # largest log handed to to_ndjson, column bytes
        self.run_day_keys = []  # input fingerprint of each run_day call
        self.op = -1
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        rows = ROWS.get(name)

        def wrapper(*args, **kwargs):
            if name == "logs.to_ndjson":
                written = args[1].tell()
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if rows is not None:
                self.rows[name] += rows(args, kwargs, result)
            if name == "logs.to_ndjson":
                self.ndjson_bytes += args[1].tell() - written
                self.exported_nbytes = max(self.exported_nbytes, log_nbytes(args[0]))
            elif name == "scenarios.run_day":
                self.run_day_keys.append(_run_day_key(args, kwargs))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace every lookup site of every traced function by a wrapper."""
        modules = [m for key, m in sys.modules.items() if key == "confoundsim" or key.startswith("confoundsim.")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[f"confoundsim.{module}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, (cls, attr) in METHODS.items():
            raw = cls.__dict__[attr]
            self._saved.append((cls, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(name, raw))

    def restore(self):
        """Put every original back, last replaced first."""
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()


def log_nbytes(log) -> int:
    """Bytes held by a log's columns."""
    cols = (log.day, log.x1, log.x2, log.a, log.propensity, log.c, log.d, log.s, log.arm)
    return sum(col.nbytes for col in cols if col is not None)


def _run_day_key(args, kwargs) -> tuple:
    """Everything run_day's log depends on except the arm label."""
    names = ("gt", "policy", "n", "day", "stream")
    bound = dict(zip(names, args), **kwargs)
    stream = bound["stream"]
    return (
        bound["gt"].fingerprint(),
        bound["policy"].probs.tobytes(),
        int(bound["n"]),
        (stream.seed, stream.day, stream.substream),
    )


def self_times(spans) -> list:
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def busy_times(spans) -> Counter:
    """Inclusive time per span name, not counting a span nested in its own name."""
    busy = Counter()
    for name, start, end, parent, _ in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] += end - start
    return busy


def write_spans(path, tracers):
    """Write the spans of each traced pass as CSV, passes numbered from 1."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,name,start,end,parent,op\n")
        for k, tracer in enumerate(tracers, start=1):
            for name, start, end, parent, op in tracer.spans:
                fh.write(f"{k},{name},{start!r},{end!r},{parent},{op}\n")
