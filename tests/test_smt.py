"""Subprocess solver driver: discovery, result parsing, failure modes."""

import os
import stat

import pytest

from pathinv.errors import ModelParseError
from pathinv.frontend.parser import parse_expr_text
from pathinv.logic import implies, pred, to_smt
from pathinv.smt import (
    SAT,
    TIMEOUT,
    UNKNOWN,
    UNSAT,
    Solver,
    SolverConfig,
    SolverResult,
    bundled_solver,
    check,
    discover_solver,
    parse_model,
)


def P(text):
    return pred(parse_expr_text(text))


def fake_solver(tmp_path, body):
    path = tmp_path / "fakesolver"
    path.write_text("#!/bin/sh\n" + body + "\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


# --- discovery ---------------------------------------------------------------


def test_discover_explicit_wins(tmp_path):
    exe = tmp_path / "my-z3"
    exe.write_text("")
    cfg = discover_solver(str(exe))
    assert cfg.executable == str(exe) and cfg.name == "z3-compatible"
    assert cfg.args == ("-in",)


def test_discover_env_variable(tmp_path, monkeypatch):
    exe = tmp_path / "cvc5-custom"
    exe.write_text("")
    monkeypatch.setenv("PATHINV_SOLVER", str(exe))
    cfg = discover_solver()
    assert cfg.executable == str(exe) and cfg.name == "cvc5-compatible"


def test_discover_falls_back_to_bundled(monkeypatch):
    monkeypatch.delenv("PATHINV_SOLVER", raising=False)
    monkeypatch.setenv("PATH", "/nonexistent")
    cfg = discover_solver()
    assert cfg.name == "bundled"


def test_config_rejects_nonpositive_timeout():
    with pytest.raises(ValueError):
        SolverConfig("solver", timeout_ms=0)


# --- end to end through the bundled solver -------------------------------------


def test_check_sat_returns_model():
    res = check(bundled_solver(), to_smt([P("x > 2 && x < 5")]))
    assert res.is_sat and res.model["x"] in (3, 4)


def test_check_unsat():
    res = check(bundled_solver(), to_smt([P("x > 2 && x < 2")]))
    assert res.is_unsat and res.model is None


def test_valid_implication_is_unsat():
    res = check(bundled_solver(), implies(P("x >= 1"), P("x >= 0")).script)
    assert res.status == UNSAT


def test_invalid_implication_yields_refuting_model():
    q = implies(P("x >= 0"), P("x >= 1"))
    res = check(bundled_solver(), q.script)
    assert res.is_sat and res.model["x"] == 0


def test_bundled_solver_enforces_timeout():
    # 2^10 disjuncts, each refuted by the Omega test: tens of ms in all
    xs = [f"x{i}" for i in range(10)]
    formula = " && ".join([f"(x{i} == 0 || x{i} == 1)" for i in range(10)]
                          + [f"{' + '.join(xs)} == 11"])
    script = to_smt([P(formula)])
    assert check(bundled_solver(timeout_ms=1), script) == SolverResult(TIMEOUT)
    assert check(bundled_solver(), script) == SolverResult(UNSAT)


# --- failure modes --------------------------------------------------------------


def test_timeout(tmp_path):
    exe = fake_solver(tmp_path, "sleep 5")
    res = check(SolverConfig(exe, timeout_ms=200), to_smt([P("x > 0")]))
    assert res.status == TIMEOUT


def test_unknown_passthrough(tmp_path):
    exe = fake_solver(tmp_path, "cat > /dev/null; echo unknown")
    res = check(SolverConfig(exe), to_smt([P("x > 0")]))
    assert res.status == UNKNOWN


def test_garbage_output_is_error(tmp_path):
    exe = fake_solver(tmp_path, "cat > /dev/null; echo banana")
    res = check(SolverConfig(exe), to_smt([P("x > 0")]))
    assert res.status == "error" and "banana" in res.detail


def test_missing_executable_is_error():
    res = check(SolverConfig("/nonexistent/solver"), to_smt([P("x > 0")]))
    assert res.status == "error"


def test_sat_with_incomplete_model_raises(tmp_path):
    exe = fake_solver(
        tmp_path,
        'cat > /dev/null; echo sat; echo "(model (define-fun x () Int 1))"')
    script = to_smt([P("x > 0 && y > 0")])
    with pytest.raises(ModelParseError):
        check(SolverConfig(exe), script)


# --- model output variants -------------------------------------------------------


def test_parse_model_z3_style():
    text = """(model
      (define-fun x () Int 3)
      (define-fun y () Int (- 7))
    )"""
    assert parse_model(text) == {"x": 3, "y": -7}


def test_parse_model_bare_list_style():
    text = "((define-fun n () Int 0))"
    assert parse_model(text) == {"n": 0}


def test_parse_model_rejects_non_int():
    with pytest.raises(ModelParseError):
        parse_model("(model (define-fun b () Bool true))")
    with pytest.raises(ModelParseError):
        parse_model("(model (define-fun f ((a Int)) Int 0))")


# --- Solver wrapper ---------------------------------------------------------------


def test_solver_counts_queries():
    s = Solver(bundled_solver())
    s.check(to_smt([P("x == 1")]))
    s.check(to_smt([P("x == 2")]))
    assert s.query_count == 2


def test_pathinv_smt_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "pathinv.smt.minismt"],
        input="(declare-const x Int)\n(assert (= x 4))\n(check-sat)\n(get-model)\n",
        capture_output=True, text=True)
    assert proc.stdout.splitlines()[0] == SAT
    assert "(define-fun x () Int 4)" in proc.stdout
