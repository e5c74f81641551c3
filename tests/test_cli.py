"""Command-line interface tests: artifacts, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import confoundsim.scenarios
from confoundsim import CategoricalSpec, make_default_ground_truth
from confoundsim.cli import COMPARISON_COLUMNS, REPORT_COLUMNS, _build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"
BASE_GRAPH = "x1 -> a; x1 -> c; x1 -> x2; x2 -> c; a -> c"
AWARE_GRAPH = BASE_GRAPH + "; x2 -> a"

SMALL = [
    "--samples-per-day", "2000",
    "--k1", "2",
    "--k2", "2",
    "--actions", "3",
]

# SHA-256 of every file each invocation writes at the SMALL flags.  The
# artifact bytes are the CLI's contract: a digest changes only with a
# deliberate, documented change to what a scenario computes or writes.
PINNED_TREES = {
    ("feature-engineering", "--dump-log"): {
        "feature_engineering/log.ndjson": "172a3c4424f1a2f337ca01361453b20d1d532131e03f8d3e071d90da3fdbaec8",
        "feature_engineering/manifest.json": "6bc7a3ae3f0d5053eabd3313048ae8661c3406b545c9f58c5a904a6b8bf4515a",
        "feature_engineering/reports.csv": "f246581af112519b5759c1ab4713b5d6b47ec397ef8b2fa29a458de6dc08667b",
        "feature_engineering/summary.json": "e1994b45118d65452399e17b0b05795f95974612a882dc6e860908ba44527cbe",
    },
    ("ab-test", "--both"): {
        "ab_test/manifest.json": "2f8ee2249eee7a9b67d13cc4ec54205ac1c7d1e2dc86ac1ba89ef9116612274f",
        "ab_test/reports.csv": "c016548536952752d71e8c3380e53d13a7b6ba29f464a07bb1244a840341efeb",
        "ab_test/summary.json": "4c370bd1f9951e9da628a61265e98e31551b845924fdd3b98337b864d39ddd0a",
    },
    ("ab-test", "--shared-log", "--dump-log"): {
        "ab_test/log.ndjson": "a467537e18e8f73b37494663de402db45209690f998119224ffc1ce6d1d9c602",
        "ab_test/manifest.json": "7e93611b3c661171cabfde3ec6d11a55e978d73f8caca8e0d35992f8de0802cc",
        "ab_test/reports.csv": "9aa789eccc2f3122919c833d55d72da403db4480282ef3bf184f55f39b66ea67",
        "ab_test/summary.json": "bceb0a0ae7b3bb20b8053120ee939a1c25bc1dcd4185c7f179d59b2431e58923",
    },
    ("click-sale", "--x-prime", "x2,x1", "--x-dprime", "none"): {
        "click_sale/comparison.csv": "0cd1f0610810b6f8a2af5d26070f86e8620e01b4c65cc5eb4686afe5399209bd",
        "click_sale/manifest.json": "4f5dc0e7205ce373700982dbb05a3e2f122c1fa9dd0f6c05625e6a653e67e7f6",
        "click_sale/reports.csv": "601403fcde411f19788ac56aa3770b320ae9719d6182066cc02864884271f10a",
        "click_sale/summary.json": "00350abc541b7dd72ab7fe9543622c683801d7f1d29d824dfa32cf08c4c7c10c",
    },
    ("two-decision", "--trace", "--dump-log"): {
        "two_decision/comparison.csv": "8bdc62362a907cad189881d313dae7cdff7c5a92536346eb0f4a0003663d6682",
        "two_decision/log.ndjson": "78918de70896978687b240adf31ea2ff0f678c033e708bb4c135efac40ac7aaf",
        "two_decision/manifest.json": "d8cb144f8bd282f541daa12af740d21cc98c31b8959ddbfbb7b94e7b02398102",
        "two_decision/reports.csv": "f4cf7d242ac6ce6c6a1c1b9b5d418868546866752e021a605444ac43dab0a557",
        "two_decision/summary.json": "4ef7de12efff278a8ab6ce07e6812f714de6edf6775cbe187dc5c9d969ca2fb5",
        "two_decision/trace.csv": "c9ac0799716dad9f0ff031ce408021cece5ca4c26c35df335479fe628f273d6b",
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestFeatureEngineering:
    def test_artifacts_and_exit_code(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "feature-engineering", "--out", str(tmp_path), *SMALL
        )
        assert code == 0
        run_dir = tmp_path / "feature_engineering"
        reports = (run_dir / "reports.csv").read_text().splitlines()
        assert reports[0] == ",".join(REPORT_COLUMNS)
        assert len(reports) == 1 + 6
        summary = json.loads((run_dir / "summary.json").read_text())
        assert set(summary["expected_ctr_by_day"]) == {str(d) for d in range(6)}
        assert "day 0:" in out and "wrote" in out

    def test_manifest_records_reproduction_inputs(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "feature-engineering", "--out", str(tmp_path), "--seed", "3", *SMALL
        )
        assert code == 0
        manifest = json.loads((tmp_path / "feature_engineering" / "manifest.json").read_text())
        assert set(manifest) == {
            "scenario", "version", "seed", "config", "artifacts", "ground_truth_fingerprint",
        }
        assert manifest["seed"] == 3
        assert manifest["config"]["samples_per_day"] == 2000
        gt = make_default_ground_truth(
            CategoricalSpec(k1=2, k2=2, n_actions=3), seed=3, min_gap=0.02
        )
        assert manifest["ground_truth_fingerprint"] == gt.fingerprint()

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        argv = ["feature-engineering", *SMALL, "--dump-log"]
        dirs = [tmp_path / "first", tmp_path / "second"]
        for d in dirs:
            assert run(capsys, *argv, "--out", str(d))[0] == 0
        first, second = (tree_bytes(d) for d in dirs)
        assert set(first) == set(second)
        assert all(first[name] == second[name] for name in first)

    def test_desk_scale_is_quick(self, capsys, tmp_path):
        start = time.perf_counter()
        code, _, _ = run(
            capsys, "feature-engineering", "--out", str(tmp_path),
            "--samples-per-day", "1000", "--k1", "2", "--k2", "2", "--actions", "3",
        )
        assert code == 0
        assert time.perf_counter() - start < 2.0

    def test_dump_log_writes_one_record_per_interaction(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "feature-engineering", "--out", str(tmp_path), *SMALL, "--dump-log"
        )
        assert code == 0
        run_dir = tmp_path / "feature_engineering"
        lines = (run_dir / "log.ndjson").read_text().splitlines()
        assert len(lines) == 2000 * 6
        record = json.loads(lines[0])
        assert set(record) == {"day", "x1", "x2", "a", "propensity", "c"}
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["artifacts"]["log"] == "log.ndjson"

    def test_out_env_var_is_the_fallback_root(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CONFOUNDSIM_OUT", str(tmp_path / "env_root"))
        code, _, _ = run(capsys, "feature-engineering", *SMALL)
        assert code == 0
        assert (tmp_path / "env_root" / "feature_engineering" / "reports.csv").exists()


class TestABTest:
    def test_both_regimes_in_one_table(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "ab-test", "--both", "--out", str(tmp_path), *SMALL, "--days", "4"
        )
        assert code == 0
        rows = (tmp_path / "ab_test" / "reports.csv").read_text().splitlines()
        regimes = {line.split(",")[1] for line in rows[1:]}
        assert regimes == {"shared", "separate"}
        assert "shared arm A expected_ctr by day:" in out
        assert "separate arm A expected_ctr by day:" in out
        summary = json.loads((tmp_path / "ab_test" / "summary.json").read_text())
        assert set(summary["regimes"]) == {"shared", "separate"}
        assert len(summary["regimes"]["shared"]["arm_a_expected_ctr"]) == 2

    def test_both_summary_holds_three_series_per_regime(self, capsys, tmp_path):
        """Each regime's summary holds the common days' and each arm's
        expected rates, day by day; the digest pins their values."""
        code, _, _ = run(capsys, "ab-test", "--both", "--out", str(tmp_path), *SMALL)
        assert code == 0
        summary = json.loads((tmp_path / "ab_test" / "summary.json").read_text())
        assert summary["ab_start_day"] == 2
        for regime in ("shared", "separate"):
            series = summary["regimes"][regime]
            assert sorted(series) == ["arm_a_expected_ctr", "arm_b_expected_ctr", "common_expected_ctr"]
            assert [len(series[name]) for name in sorted(series)] == [4, 4, 2]
        shared, separate = summary["regimes"]["shared"], summary["regimes"]["separate"]
        # Both regimes run the days up to and including the first split day once.
        assert shared["common_expected_ctr"] == separate["common_expected_ctr"]
        assert shared["arm_a_expected_ctr"][0] == separate["arm_a_expected_ctr"][0]

    def test_both_with_dump_log_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "ab-test", "--both", "--dump-log", "--out", str(tmp_path), *SMALL
        )
        assert code == 2
        assert "--both" in err and "--dump-log" in err
        assert not (tmp_path / "ab_test").exists()

    def test_invalid_start_day_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "ab-test", "--out", str(tmp_path), *SMALL,
            "--days", "3", "--ab-start-day", "3",
        )
        assert code == 2
        assert "error:" in err
        assert not (tmp_path / "ab_test").exists()


    def test_one_row_per_day_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "ab-test", "--out", str(tmp_path), "--samples-per-day", "1"
        )
        assert code == 2
        assert "A/B" in err and "samples_per_day" in err
        assert not (tmp_path / "ab_test").exists()

    @pytest.mark.parametrize("flag, expected", [("--both", 16), ("--shared-log", 10)])
    def test_run_day_calls(self, capsys, tmp_path, monkeypatch, flag, expected):
        """Two common days and the first split day's two arms run once; each
        regime then runs three more split days of two arms."""
        calls = []
        real = confoundsim.scenarios.run_day

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(confoundsim.scenarios, "run_day", counting)
        code, _, _ = run(capsys, "ab-test", flag, "--out", str(tmp_path), *SMALL)
        assert code == 0
        assert len(calls) == expected


class TestClickSale:
    def test_comparison_table(self, capsys, tmp_path):
        code, out, _ = run(capsys, "click-sale", "--out", str(tmp_path), *SMALL)
        assert code == 0
        rows = (tmp_path / "click_sale" / "comparison.csv").read_text().splitlines()
        assert rows[0] == ",".join(COMPARISON_COLUMNS)
        variants = [line.split(",")[1] for line in rows[1:]]
        assert variants == ["mismatched", "full", "oracle"]
        assert "post-click sale rate" in out

    @pytest.mark.parametrize("flag", ["--x-prime", "--x-dprime"])
    @pytest.mark.parametrize(
        "text, expected",
        [("x2,x1", "x1+x2"), (" X2 , x1", "x1+x2"), ("x1,x1", "x1"), ("", "none"), ("none", "none")],
    )
    def test_covariate_subsets_round_trip(self, capsys, tmp_path, flag, text, expected):
        code, _, _ = run(capsys, "click-sale", "--out", str(tmp_path), *SMALL, flag, text)
        assert code == 0
        summary = json.loads((tmp_path / "click_sale" / "summary.json").read_text())
        assert summary[flag[2:].replace("-", "_")] == expected

    @pytest.mark.parametrize("flag", ["--x-prime", "--x-dprime"])
    @pytest.mark.parametrize("text", ["x3", "x1,", "x1,x3"])
    def test_unknown_covariate_is_a_usage_error(self, capsys, tmp_path, flag, text):
        code, _, err = run(capsys, "click-sale", "--out", str(tmp_path), *SMALL, flag, text)
        assert code == 2
        assert "unknown covariate" in err
        assert not (tmp_path / "click_sale").exists()


class TestTwoDecision:
    def test_comparison_and_trace(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "two-decision", "--out", str(tmp_path), *SMALL, "--trace"
        )
        assert code == 0
        run_dir = tmp_path / "two_decision"
        rows = (run_dir / "comparison.csv").read_text().splitlines()
        variants = [line.split(",")[1] for line in rows[1:]]
        assert variants == ["joint_argmax", "independent_factored", "reinforce_factored"]
        trace = (run_dir / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,exact_objective,gradient_norm"
        assert len(trace) == 1 + 2000
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["artifacts"]["trace"] == "trace.csv"
        assert manifest["config"]["decisions"] == 2
        assert "reinforce_factored:" in out

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        argv = ["two-decision", *SMALL, "--trace"]
        dirs = [tmp_path / "first", tmp_path / "second"]
        for d in dirs:
            assert run(capsys, *argv, "--out", str(d))[0] == 0
        first, second = (tree_bytes(d) for d in dirs)
        assert set(first) == set(second)
        assert all(first[name] == second[name] for name in first)

    def test_invalid_min_gap_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "two-decision", "--trace", "--out", str(tmp_path), *SMALL, "--min-gap", "0.5"
        )
        assert code == 2
        assert "min_gap must lie in [0, 0.2]" in err
        assert not (tmp_path / "two_decision").exists()


class TestArtifactBytes:
    @pytest.mark.parametrize("argv", list(PINNED_TREES), ids=" ".join)
    def test_artifact_tree_matches_pinned_digests(self, capsys, tmp_path, argv):
        assert run(capsys, *argv, "--out", str(tmp_path), *SMALL)[0] == 0
        digests = {
            name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(tmp_path).items()
        }
        assert digests == PINNED_TREES[argv]


class TestDagCheck:
    def test_base_graph_is_admissible(self, capsys):
        code, out, _ = run(
            capsys, "dag-check", BASE_GRAPH, "--treatment", "a", "--outcome", "c",
            "--adjust", "x1",
        )
        assert code == 0
        assert out.startswith("admissible")
        assert "blocked path: a <- x1 -> c" in out

    def test_x2_aware_graph_names_the_open_path(self, capsys):
        code, out, _ = run(
            capsys, "dag-check", AWARE_GRAPH, "--treatment", "a", "--outcome", "c",
            "--adjust", "x1",
        )
        assert code == 1
        assert "inadmissible" in out
        assert "a <- x2 -> c" in out

    def test_x2_aware_graph_fixed_by_larger_set(self, capsys):
        code, out, _ = run(
            capsys, "dag-check", AWARE_GRAPH, "--treatment", "a", "--outcome", "c",
            "--adjust", "x1,x2",
        )
        assert code == 0
        assert out.startswith("admissible")

    def test_descendant_adjustment_is_called_out(self, capsys):
        code, out, _ = run(
            capsys, "dag-check", "u -> a; u -> c; a -> m; m -> c",
            "--treatment", "a", "--outcome", "c", "--adjust", "m",
        )
        assert code == 1
        assert "descendants of a" in out

    def test_graph_file_input(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# base graph\nx1 -> a\nx1 -> c\nx1 -> x2\nx2 -> c\na -> c\n")
        code, out, _ = run(
            capsys, "dag-check", str(path), "--treatment", "a", "--outcome", "c",
            "--adjust", "x1",
        )
        assert code == 0
        assert out.startswith("admissible")

    def test_cyclic_graph_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "dag-check", "a -> b; b -> a", "--treatment", "a", "--outcome", "b"
        )
        assert code == 2
        assert "cycle" in err

    @pytest.mark.parametrize(
        "graph, adjust", [(AWARE_GRAPH, "x1,x2,a"), ("u -> a; u -> c", "u,c"), (BASE_GRAPH, "x1,c")]
    )
    def test_adjusting_on_treatment_or_outcome_is_a_usage_error(self, capsys, graph, adjust):
        code, out, err = run(
            capsys, "dag-check", graph, "--treatment", "a", "--outcome", "c", "--adjust", adjust
        )
        assert code == 2
        assert "adjustment set must exclude treatment and outcome" in err
        assert out == ""

    def test_unknown_node_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "dag-check", BASE_GRAPH, "--treatment", "a", "--outcome", "c",
            "--adjust", "zz",
        )
        assert code == 2
        assert "not in graph" in err


class TestExitCodes:
    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("confoundsim ")

    def test_missing_subcommand_is_usage(self, capsys):
        assert run(capsys)[0] == 2

    def test_bad_flag_value_is_usage(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "feature-engineering", "--out", str(tmp_path), *SMALL, "--epsilon", "2.0"
        )
        assert code == 2
        assert "error:" in err

    def test_log_too_large_to_allocate_is_usage(self, capsys, tmp_path):
        # numpy refuses six days of 10**12 rows at once, before any column is allocated.
        code, _, err = run(
            capsys, "feature-engineering", "--out", str(tmp_path), "--samples-per-day", str(10**12)
        )
        assert code == 2
        assert "error: a log of 6,000,000,000,000 rows at 16 bytes per row does not fit in memory" in err
        assert not (tmp_path / "feature_engineering").exists()

    @pytest.mark.parametrize("command", ["feature-engineering", "ab-test", "click-sale", "two-decision"])
    def test_spec_too_large_to_allocate_is_usage(self, capsys, tmp_path, command):
        # The environment's (k1, k2) covariate table alone would take 728 TiB,
        # more than any address space holds.
        code, _, err = run(
            capsys, command, "--out", str(tmp_path), "--samples-per-day", "100",
            "--k1", str(10**7), "--k2", str(10**7),
        )
        assert code == 2
        assert err.startswith("error: Unable to allocate 728. TiB")
        assert list(tmp_path.iterdir()) == []

    def test_traced_study_that_cannot_start_writes_no_directory(self, capsys, tmp_path):
        # The search's trace needs the run directory, which it makes only
        # once the exploration day has run.
        code, _, err = run(
            capsys, "two-decision", "--trace", "--out", str(tmp_path), "--samples-per-day", "100",
            "--k1", str(10**7), "--k2", str(10**7),
        )
        assert code == 2
        assert err.startswith("error: Unable to allocate 728. TiB")
        assert not (tmp_path / "two_decision").exists()

    def test_unwritable_output_root_is_internal(self, capsys, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("a file, not a directory")
        code, _, err = run(
            capsys, "feature-engineering", "--out", str(blocker / "nested"), *SMALL
        )
        assert code == 3
        assert "internal error:" in err


class TestParserReuse:
    """main() builds its parser once per process and reuses it."""

    def test_consecutive_calls_write_what_separate_runs_write(self, capsys, tmp_path):
        argvs = [
            ("feature-engineering", "--dump-log", "--days", "3"),
            ("ab-test", "--shared-log", "--dump-log", "--days", "3"),
        ]
        for k, argv in enumerate(argvs):
            out = tmp_path / f"separate{k}"
            proc = subprocess.run(
                [sys.executable, "-m", "confoundsim.cli", *argv, "--out", str(out), *SMALL],
                env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        for argv in argvs:
            assert run(capsys, *argv, "--out", str(tmp_path / "together"), *SMALL)[0] == 0
        separate = {**tree_bytes(tmp_path / "separate0"), **tree_bytes(tmp_path / "separate1")}
        assert tree_bytes(tmp_path / "together") == separate

    @pytest.mark.parametrize("argv", [("--help",), ("ab-test", "--help"), ("dag-check", "--help")])
    def test_help_text_is_that_of_a_fresh_parser(self, capsys, argv):
        main(["dag-check", BASE_GRAPH, "--treatment", "a", "--outcome", "c", "--adjust", "x1,x2"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            _build_parser.__wrapped__().parse_args(list(argv))
        fresh = capsys.readouterr().out
        assert run(capsys, *argv) == (0, fresh, "")
        assert fresh.startswith("usage: confoundsim")

    @pytest.mark.parametrize("command", ["feature-engineering", "ab-test", "click-sale", "two-decision"])
    def test_help_prints_the_defaults(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        text = " ".join(out.split())
        expected = [
            "run seed (default 0)",
            "cardinality of x1 (default 5)",
            "cardinality of x2 (default 5)",
            "number of actions (default 10)",
            "interactions per day (default 400000)",
            "exploration rate (default 0.05)",
            "required confounding gap (default 0.02)",
            "days to simulate (default 6)",
        ]
        if command == "ab-test":
            expected.append("first 50/50 split day (default 2)")
        assert code == 0
        assert [line for line in expected if line not in text] == []
