"""Command-line front end: scenario runners and DAG identification checks.

Every command is a pure function of its flags: rerunning with identical
flags rewrites byte-identical artifacts (CSV/JSON, no timestamps).  Day
reports across scenarios share one fixed CSV column set, with fields that
do not apply left empty; comparison studies share a second fixed set.

Exit codes: 0 success (or admissible verdict), 1 negative domain verdict,
2 usage or validation error, 3 internal error.  The default output root
is ``--out``, else the ``CONFOUNDSIM_OUT`` environment variable, else
``./runs``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .causal import Dag, backdoor_admissible, backdoor_paths, format_path, parse_dag, unblocked_backdoor_path
from .features import COVARIATE_FACTORS, CategoricalSpec, _canonical_subset, _subset_text
from .scenarios import (
    ScenarioConfig,
    _ab_tests,
    default_two_decision_search,
    scenario_click_sale,
    scenario_feature_engineering,
    scenario_two_decision,
)

__all__ = ["main"]

REPORT_COLUMNS = (
    "scenario",
    "regime",
    "arm",
    "day",
    "samples",
    "empirical_ctr",
    "binomial_se",
    "expected_ctr",
    "oracle_ctr",
    "regret",
    "features_used",
    "trained_on",
)

COMPARISON_COLUMNS = ("scenario", "variant", "true_value", "model_value", "detail")


class UsageError(ValueError):
    """Flag combination or value the command line cannot accept."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _trained_text(span) -> str:
    if span is None:
        return ""
    lo, hi = span
    return str(lo) if lo == hi else f"{lo}-{hi}"


def _write_csv(path: Path, columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _covariates(text: str) -> tuple:
    """Value of ``--x-prime``/``--x-dprime``: covariates separated by commas,
    in any case and order and possibly repeated, or 'none'."""
    cleaned = text.strip().lower()
    names = () if cleaned in ("", "none") else dict.fromkeys(t.strip() for t in cleaned.split(","))
    try:
        return _canonical_subset(names, COVARIATE_FACTORS, "covariate")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}; separate names with commas, or give 'none'") from None


def _out_dir(args, name: str) -> Path:
    out = Path(args.out or os.environ.get("CONFOUNDSIM_OUT") or "runs") / name
    out.mkdir(parents=True, exist_ok=True)
    return out


def _scenario_config(args, n_decisions=None) -> ScenarioConfig:
    spec = CategoricalSpec(
        k1=args.k1, k2=args.k2, n_actions=args.actions, n_decisions=n_decisions
    )
    return ScenarioConfig(
        spec=spec,
        samples_per_day=args.samples_per_day,
        epsilon=args.epsilon,
        seed=args.seed,
        min_gap=args.min_gap,
        ab_start_day=getattr(args, "ab_start_day", ScenarioConfig.ab_start_day),
        days=args.days,
    )


def _emit(args, scenario: str, cfg: ScenarioConfig, result, summary: dict, reports, entries=(), **config):
    """Write a finished scenario's artifact tree under ``--out/<scenario>``.

    ``reports`` are ``(regime, DayReport)`` pairs for ``reports.csv``;
    ``entries``, when given, become ``comparison.csv``.  ``summary.json``
    gets ``summary`` plus the scenario name, ``log.ndjson`` is written under
    ``--dump-log``, and ``manifest.json`` records the base configuration
    extended by ``config``.  Ends by printing the path of the main table.
    """
    out = _out_dir(args, scenario)
    artifacts = {"reports": "reports.csv", "summary": "summary.json"}
    rows = [
        {
            **r.to_dict(),
            "scenario": scenario,
            "regime": regime,
            "features_used": "+".join(r.features_used),
            "trained_on": _trained_text(r.model_trained_on),
        }
        for regime, r in reports
    ]
    _write_csv(out / "reports.csv", REPORT_COLUMNS, rows)
    if entries:
        rows = [
            {
                "scenario": scenario,
                "variant": e.variant,
                "true_value": e.value,
                "model_value": e.model_value,
                "detail": e.detail.replace(",", ";"),
            }
            for e in entries
        ]
        _write_csv(out / "comparison.csv", COMPARISON_COLUMNS, rows)
        artifacts["comparison"] = "comparison.csv"
    _write_json(out / "summary.json", {"scenario": scenario, **summary})
    if getattr(args, "trace", False):
        artifacts["trace"] = "trace.csv"
    if args.dump_log:
        with open(out / "log.ndjson", "w", encoding="utf-8") as fh:
            result.log.to_ndjson(fh)
        artifacts["log"] = "log.ndjson"
    manifest = {
        "scenario": scenario,
        "version": __version__,
        "seed": cfg.seed,
        "config": {
            "k1": cfg.spec.k1,
            "k2": cfg.spec.k2,
            "actions": cfg.spec.n_actions,
            "decisions": cfg.spec.n_decisions,
            "samples_per_day": cfg.samples_per_day,
            "epsilon": cfg.epsilon,
            "min_gap": cfg.min_gap,
            "days": cfg.days,
            **config,
        },
        "artifacts": artifacts,
        "ground_truth_fingerprint": result.gt.fingerprint(),
    }
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {out / artifacts.get('comparison', 'reports.csv')}")


def cmd_feature_engineering(args) -> int:
    cfg = _scenario_config(args)
    result = scenario_feature_engineering(cfg)
    rate = {r.day: r.expected_ctr for r in result.reports}
    summary = {
        "confounding_gap": result.gt.gap,
        "expected_ctr_by_day": {str(d): rate[d] for d in sorted(rate)},
        "dip_day3_vs_day1": (rate[1] - rate[3]) if 3 in rate and 1 in rate else None,
        "days": [r.to_dict() for r in result.reports],
    }
    for r in result.reports:
        print(
            f"day {r.day}: expected_ctr {r.expected_ctr:.6f} empirical {r.empirical_ctr:.6f}"
            f" features {'+'.join(r.features_used) or '-'}"
        )
    _emit(args, "feature_engineering", cfg, result, summary, [("", r) for r in result.reports])
    return 0


def cmd_ab_test(args) -> int:
    if args.both and args.dump_log:
        raise UsageError(
            "--dump-log writes one regime's log; with --both there are two, "
            "so pick --shared-log or --separate-logs"
        )
    cfg = _scenario_config(args)
    regimes = (True, False) if args.both else (args.shared_log,)
    ran = _ab_tests(cfg, regimes)
    results = {"shared" if shared else "separate": res for shared, res in zip(regimes, ran)}
    summary = {
        "ab_start_day": cfg.ab_start_day,
        "regimes": {
            regime: {
                "common_expected_ctr": [r.expected_ctr for r in res.common_reports],
                "arm_a_expected_ctr": [r.expected_ctr for r in res.arm_reports["A"]],
                "arm_b_expected_ctr": [r.expected_ctr for r in res.arm_reports["B"]],
            }
            for regime, res in results.items()
        },
    }
    for regime, series in sorted(summary["regimes"].items()):
        arm_a = " ".join(f"{v:.6f}" for v in series["arm_a_expected_ctr"])
        print(f"{regime} arm A expected_ctr by day: {arm_a}")
    reports = [(regime, r) for regime, res in results.items() for r in res.reports]
    # Both regimes share one environment, and only a single regime may dump
    # its log, so the last result speaks for the run.
    _emit(
        args, "ab_test", cfg, ran[-1], summary, reports,
        ab_start_day=cfg.ab_start_day, regimes=sorted(results),
    )
    return 0


def cmd_click_sale(args) -> int:
    cfg = _scenario_config(args)
    result = scenario_click_sale(cfg, x_prime=args.x_prime, x_dprime=args.x_dprime)
    views = {"x_prime": _subset_text(result.x_prime), "x_dprime": _subset_text(result.x_dprime)}
    summary = {**views, "values": {e.variant: e.value for e in result.entries}}
    for e in result.entries:
        print(f"{e.variant}: post-click sale rate {e.value:.6f} ({e.detail})")
    _emit(args, "click_sale", cfg, result, summary, [("", result.log_report)], result.entries, **views)
    return 0


def cmd_two_decision(args) -> int:
    cfg = _scenario_config(args, n_decisions=args.decisions)
    # The search writes its trace as it runs, so the directory comes first.
    trace_path = str(_out_dir(args, "two_decision") / "trace.csv") if args.trace else None
    search = default_two_decision_search(cfg.seed, trace_path=trace_path)
    result = scenario_two_decision(cfg, x_prime=args.x_prime, x_dprime=args.x_dprime, search=search)
    views = {"x_prime": _subset_text(result.x_prime), "x_dprime": _subset_text(result.x_dprime)}
    summary = {
        **views,
        "true_values": {e.variant: e.value for e in result.entries},
        "model_values": {e.variant: e.model_value for e in result.entries},
        "final_action_logits": result.final_params.action_logits.tolist(),
        "final_decision_logits": result.final_params.decision_logits.tolist(),
    }
    for e in result.entries:
        print(f"{e.variant}: true {e.value:.6f} model {e.model_value:.6f}")
    _emit(args, "two_decision", cfg, result, summary, [("", result.log_report)], result.entries, **views)
    return 0


def _load_graph(text_or_path: str) -> Dag:
    path = Path(text_or_path)
    if path.exists() and path.is_file():
        text = path.read_text(encoding="utf-8")
    else:
        text = text_or_path.replace(";", "\n")
        if "->" not in text:
            raise UsageError(
                f"{text_or_path!r} is neither an existing edge-list file nor an "
                "inline edge list ('a -> b; ...')"
            )
    return parse_dag(text)


def cmd_dag_check(args) -> int:
    g = _load_graph(args.graph)
    treatment, outcome = args.treatment, args.outcome
    zs = tuple(t.strip() for t in args.adjust.split(",") if t.strip()) if args.adjust else ()
    for node in (treatment, outcome, *zs):
        if node not in g.nodes:
            raise UsageError(f"node {node!r} not in graph (nodes: {', '.join(g.nodes)})")
    adjust_text = "{" + ", ".join(zs) + "}" if zs else "{}"
    if not backdoor_admissible(g, treatment, outcome, zs):
        bad = sorted(set(zs) & g.descendants(treatment))
        if bad:
            print(f"inadmissible: adjustment set {adjust_text} contains descendants of {treatment}: {', '.join(bad)}")
        else:
            print(f"inadmissible: adjusting on {adjust_text} leaves a backdoor path open")
            print(f"  open path: {format_path(g, unblocked_backdoor_path(g, treatment, outcome, zs))}")
        return 1
    paths = backdoor_paths(g, treatment, outcome)
    print(f"admissible: {adjust_text} blocks every backdoor path from {treatment} to {outcome}")
    if paths:
        for p in paths:
            print(f"  blocked path: {format_path(g, p)}")
    else:
        print("  no backdoor paths exist")
    return 0


def _add_common_flags(sub: argparse.ArgumentParser):
    defaults, spec = ScenarioConfig, ScenarioConfig.spec
    for flag, default, text in (
        ("--seed", defaults.seed, "run seed"),
        ("--k1", spec.k1, "cardinality of x1"),
        ("--k2", spec.k2, "cardinality of x2"),
        ("--actions", spec.n_actions, "number of actions"),
        ("--samples-per-day", defaults.samples_per_day, "interactions per day"),
        ("--epsilon", defaults.epsilon, "exploration rate"),
        ("--min-gap", defaults.min_gap, "required confounding gap"),
        ("--days", defaults.days, "days to simulate"),
    ):
        sub.add_argument(flag, type=type(default), default=default, help=f"{text} (default %(default)s)")
    sub.add_argument("--out", default=None, help="output root (default $CONFOUNDSIM_OUT or ./runs)")
    sub.add_argument("--dump-log", action="store_true", help="also write the interaction log as NDJSON")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="confoundsim",
        description="Deterministic simulator of confounding in logged-feedback recommender loops.",
    )
    parser.add_argument("--version", action="version", version=f"confoundsim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    fe = subs.add_parser(
        "feature-engineering",
        help="daily retrain loop where one x2-aware day confounds the next covariate-blind refit",
    )
    _add_common_flags(fe)
    fe.set_defaults(func=cmd_feature_engineering)

    ab = subs.add_parser("ab-test", help="A/B test with shared or separate training logs")
    _add_common_flags(ab)
    ab.add_argument(
        "--ab-start-day", type=int, default=ScenarioConfig.ab_start_day,
        help="first 50/50 split day (default %(default)s)",
    )
    group = ab.add_mutually_exclusive_group()
    group.add_argument("--shared-log", action="store_true", help="both arms train on the union log")
    group.add_argument(
        "--separate-logs", action="store_true", help="each arm trains on its own log (default)"
    )
    group.add_argument("--both", action="store_true", help="run both regimes")
    ab.set_defaults(func=cmd_ab_test)

    ck = subs.add_parser("click-sale", help="modularised click/sale sub-models with covariate views")
    _add_common_flags(ck)
    ck.add_argument(
        "--x-prime", type=_covariates, default="x1", help="sale model covariates (e.g. x1 or x1,x2 or none)"
    )
    ck.add_argument("--x-dprime", type=_covariates, default="x2", help="click model covariates")
    ck.set_defaults(func=cmd_click_sale)

    td = subs.add_parser("two-decision", help="joint vs independent vs learned factored policies")
    _add_common_flags(td)
    td.add_argument("--decisions", type=int, default=2, help="cardinality of the second decision (default 2)")
    td.add_argument("--x-prime", type=_covariates, default="x1", help="action head covariates")
    td.add_argument("--x-dprime", type=_covariates, default="x2", help="decision head covariates")
    td.add_argument("--trace", action="store_true", help="write the optimisation trace CSV")
    td.set_defaults(func=cmd_two_decision)

    dag = subs.add_parser("dag-check", help="backdoor admissibility verdict for an adjustment set")
    dag.add_argument("graph", help="edge-list file, or inline edges like 'x1 -> a; x1 -> c'")
    dag.add_argument("--treatment", required=True)
    dag.add_argument("--outcome", required=True)
    dag.add_argument("--adjust", default="", help="comma-separated adjustment set (default empty)")
    dag.set_defaults(func=cmd_dag_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary for exit code 3
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
