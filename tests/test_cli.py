"""Command-line interface: exit codes, JSON reports, reproducible output."""

import json
import stat

import pytest
from click.testing import CliRunner

from pathinv.cli import EXIT_CONFIG, EXIT_FAILED, EXIT_INCONCLUSIVE, EXIT_OK, main

from conftest import CORPUS, LLM_CORPUS, TRANSCRIPTS


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


# --- verify ---------------------------------------------------------------------


def test_verify_gold_invariants_ok(runner):
    res = invoke(runner, "verify", CORPUS / "count_up.mc")
    assert res.exit_code == EXIT_OK
    assert "loop 0: valid" in res.output


def test_verify_json_output(runner):
    res = invoke(runner, "verify", CORPUS / "two_loops.mc", "--json")
    assert res.exit_code == EXIT_OK
    data = json.loads(res.output)
    assert data["program"] == "two_loops"
    assert [l["loop_id"] for l in data["loops"]] == [0, 1]
    assert all(l["status"] == "valid" for l in data["loops"])
    assert data["smt_queries"] > 0


def test_verify_explicit_invariant_overrides_gold(runner):
    res = invoke(runner, "verify", CORPUS / "count_up.mc",
                 "--invariant", "0=x < n")
    assert res.exit_code == EXIT_FAILED
    assert "init_fail" in res.output
    assert "state:" in res.output  # counterexample printed


def test_verify_broken_invariant_json_counterexample(runner):
    res = invoke(runner, "verify", CORPUS / "count_up.mc",
                 "--invariant", "0=x <= n && x != 1", "--json")
    assert res.exit_code == EXIT_FAILED
    (loop,) = json.loads(res.output)["loops"]
    assert loop["status"] == "preserve_fail"
    ce = loop["counterexample"]
    assert ce["kind"] == "preserve"
    assert ce["post_state"]["x"] == ce["state"]["x"] + 1


def test_verify_missing_invariant_is_usage_error(runner, tmp_path):
    f = tmp_path / "p.mc"
    f.write_text("int x; while (x > 0) { x = x - 1; }")
    res = invoke(runner, "verify", f)
    assert res.exit_code == EXIT_CONFIG
    assert "no invariant for loop(s) [0]" in res.output


def test_verify_parse_error_exit_and_position(runner, tmp_path):
    f = tmp_path / "bad.mc"
    f.write_text("int x;\nx = ;\n")
    res = invoke(runner, "verify", f)
    assert res.exit_code == EXIT_CONFIG
    assert "line 2" in res.output


def test_verify_inconclusive_solver(runner, tmp_path):
    exe = tmp_path / "solver"
    exe.write_text("#!/bin/sh\ncat > /dev/null; echo unknown\n")
    exe.chmod(exe.stat().st_mode | stat.S_IXUSR)
    res = invoke(runner, "verify", CORPUS / "count_up.mc", "--solver", exe)
    assert res.exit_code == EXIT_INCONCLUSIVE


# --- infer ----------------------------------------------------------------------


def test_infer_combinor_valid(runner):
    res = invoke(runner, "infer", CORPUS / "count_up.mc", "--json")
    assert res.exit_code == EXIT_OK
    data = json.loads(res.output)
    assert data["totals"]["status"] == "valid"
    assert data["mode"] == "combinor"
    (loop,) = data["loops"]
    assert loop["status"] == "valid" and loop["invariant"]


def test_infer_failure_exit_code(runner):
    res = invoke(runner, "infer", CORPUS / "triple_step.mc", "--json")
    assert res.exit_code == EXIT_FAILED
    data = json.loads(res.output)
    assert data["totals"]["status"] == "failed"


def test_infer_stable_json_reproducible(runner):
    a = invoke(runner, "infer", CORPUS / "branch_in_loop.mc", "--stable-json")
    b = invoke(runner, "infer", CORPUS / "branch_in_loop.mc", "--stable-json")
    assert a.exit_code == b.exit_code == EXIT_OK
    assert a.output == b.output
    data = json.loads(a.output)
    assert data["totals"]["time_ms"] == 0
    assert all(l["time_ms"] == 0 for l in data["loops"])


def test_infer_llm_mode_requires_endpoint_or_mock(runner):
    res = invoke(runner, "infer", CORPUS / "count_up.mc", "--mode", "llm")
    assert res.exit_code == EXIT_CONFIG


def test_infer_llm_mode_with_transcripts(runner):
    res = invoke(runner, "infer", LLM_CORPUS / "llm_triple.mc",
                 "--mode", "llm", "--mock", TRANSCRIPTS, "--json")
    assert res.exit_code == EXIT_OK
    data = json.loads(res.output)
    assert data["totals"]["status"] == "valid" and data["mode"] == "llm"


# --- paths ----------------------------------------------------------------------


def test_paths_text_listing(runner):
    res = invoke(runner, "paths", CORPUS / "nested_loop.mc")
    assert res.exit_code == EXIT_OK
    lines = res.output.strip().splitlines()
    assert len(lines) == 3  # inner loop, outer loop, top level
    assert lines[0].startswith("Loop") and "depth=2" in lines[0]
    assert lines[-1].startswith("TopLevel")


def test_paths_json(runner):
    res = invoke(runner, "paths", CORPUS / "branch_in_loop.mc", "--json")
    data = json.loads(res.output)
    regions = [d["region"] for d in data]
    assert regions.count("BranchArm") == 2
    arm = next(d for d in data if d["region"] == "BranchArm")
    assert arm["assumed"] and arm["depth"] == 2


def test_paths_dot(runner):
    res = invoke(runner, "paths", CORPUS / "count_up.mc", "--dot")
    assert res.output.startswith("digraph cfg {")
    assert "while[0]" in res.output


# --- bench ----------------------------------------------------------------------


def test_bench_writes_report_and_isolates_errors(runner, tmp_path):
    work = tmp_path / "suite"
    work.mkdir()
    for name in ("count_up.mc", "two_loops.mc"):
        (work / name).write_text((CORPUS / name).read_text())
    (work / "broken.mc").write_text("int x; x = ;")
    out = tmp_path / "bench.json"
    res = invoke(runner, "bench", work, "--output", out)
    assert res.exit_code == EXIT_OK
    assert "wrote" in res.output
    data = json.loads(out.read_text())
    by_name = {e["program"]: e for e in data["results"]}
    assert by_name["broken.mc".split(".")[0]]["totals"]["status"] == "error"
    assert by_name["count_up"]["totals"]["status"] == "valid"
    agg = data["aggregate"]["combinor"]
    assert agg["solved"] == 2 and agg["total"] == 3
