"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

They check that every expected verdict holds under bounded concrete
execution (so no expectation comes from pathinv), that the outcome checks
reject wrong answers, and that the traced run is self-consistent.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, Outcome, Result  # noqa: E402

ROOT = HERE.parent
SEEDS = range(5)


@pytest.fixture(scope="module")
def mods():
    return workloads.import_pathinv(ROOT / "src")


@pytest.mark.parametrize("seed", SEEDS)
def test_branchy_expectations_hold_under_bounded_execution(seed):
    for gp in gen.branchy_workload(seed):
        for loop, pairs in gp.invariants:
            valid = [inv for inv, expected in pairs if expected == gen.VALID]
            assert gen.sound_under_execution(gp, {loop: valid[0]}), gp.name
            for inv, expected in pairs:
                assert gen.concrete_verdict(gp, loop, inv) == expected, (gp.name, expected)


def test_houdini_programs_are_correct_under_bounded_execution():
    programs = gen.houdini_workload()
    assert len({gp.name for gp in programs}) == len(programs)
    for gp in programs:
        assert gen.sound_under_execution(gp, {}), gp.name


def test_corpus_programs_and_gold_invariants_hold(mods):
    """The corpus's expected decision is `valid` for every program: the
    postcondition and the gold invariants survive bounded execution."""
    ops = workloads.build_ops("corpus", 0, ROOT, mods)
    assert len(ops) == 15
    for op in ops:
        gold = {a.loop_id: workloads.ast_to_model(a.formula)
                for a in op.program.annotations if a.kind == "gold_invariant"}
        assert gold, op.name
        assert gen.sound_under_execution(op.model, gold, range(-6, 7)), op.name


def test_checks_reject_wrong_answers(mods):
    """A wrong counterexample and an unsound inferred invariant are caught."""
    ops = workloads.build_ops("branchy-verify", 0, ROOT, mods)
    mutant = next(op for op in ops if op.expected == gen.PRESERVE_FAIL)
    res = workloads.run_op(mutant, mods)
    assert res.outcome == Outcome.SOLVED
    assert workloads.check_result(mutant, res, mods) == ""
    ce = res.record["counterexample"]
    bogus = dict(ce, post_state={k: v + 1 for k, v in ce["post_state"].items()})
    forged = Result(Outcome.SOLVED, dict(res.record, counterexample=bogus), 0)
    assert "differs" in workloads.check_result(mutant, forged, mods)

    count_up = next(op for op in workloads.build_ops("corpus", 0, ROOT, mods)
                    if op.name == "count_up")
    unsound = {"program": "count_up", "loops": [{"loop_id": 0, "invariant": "x <= 0"}]}
    assert workloads.check_result(count_up, Result(Outcome.SOLVED, unsound, 0), mods) != ""


def test_exceptions_count_as_failures(mods):
    op = Op("broken", "infer", None, "", mode="combinor")
    res = workloads.guarded_run(op, mods)
    assert res.outcome == Outcome.FAILED and res.detail


def _traced(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["branchy-verify", "houdini-infer"])
def test_traced_run_is_self_consistent(workload):
    """Each traced run checks that its smt.queries equals the reports' sum
    and that traced and untraced passes give identical verdicts (any
    mismatch makes it report correct=false). Two runs with one seed, in
    separate processes, give identical counts."""
    first, second = _traced(workload, 3), _traced(workload, 3)
    assert first["correct"] and second["correct"]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["smt.queries"] > 0
    if workload == "branchy-verify":
        assert first["metrics"]["candidates.combine_ms"]["value"] == 0


@pytest.mark.xfail(strict=True, reason="pathinv assumes every branch condition of a loop "
                   "body at the loop head, before the statements that precede the branch")
def test_branch_condition_after_write(mods):
    """Known defect, kept visible here: `expand_body_paths` collects the
    conditions of a body path apart from its statements, and the
    preservation check assumes them in the pre-state. Below, the `if`
    always takes its then arm, so y grows by 2 per iteration and
    `y == i` is not inductive; pathinv reports it valid. The generators
    avoid such conditions so that the benchmark's verdicts stay right."""
    body = (("=", "x", 1),
            ("if", ("==", "x", 1), (("=", "y", ("+", "y", 2)),), (("=", "y", ("+", "y", 1)),)),
            ("=", "x", 0), ("=", "i", ("+", "i", 1)))
    gp = gen.GenProgram("cond_after_write", ("i", "n", "x", "y"), (">=", "n", 0), ("==", 0, 0),
                        (("=", "i", 0), ("=", "x", 0), ("=", "y", 0),
                         ("while", ("<", "i", "n"), body)))
    inv = gen.conj(("==", "x", 0), ("==", "y", "i"))
    assert gen.concrete_verdict(gp, 0, inv) == gen.PRESERVE_FAIL
    p = mods["frontend.parser"].parse_program(gp.text())
    pred = mods["logic"].pred(mods["frontend.parser"].parse_expr_text(gen.render(inv)))
    hp = mods["hoare"].build_problem(p, 0, {0: pred})
    solver = mods["smt"].Solver(mods["smt"].bundled_solver())
    assert mods["hoare"].check_invariant(hp, pred, solver).status == gen.PRESERVE_FAIL
