"""Hierarchical summarization, the final whole-program pass, and reports."""

import json

import jsonschema

from pathinv.candidates import GeneratorBudget, LlmConfig
from pathinv.frontend.parser import parse_expr_text, parse_program
from pathinv.hoare import build_problem, check_invariant
from pathinv.logic import P_TRUE, implies, pred
from pathinv.summarize import (
    final_check,
    hierarch_summarize,
    loop_order,
    make_context,
    run_pipeline,
)

from conftest import CORPUS, REPO, load


def P(text):
    return pred(parse_expr_text(text))


def summarize(p, solver, **kw):
    return hierarch_summarize(make_context(p), solver=solver, **kw)


# a top-level loop followed by a nest whose inner loop reads its result
TOP_THEN_NEST = """\
//@ pre: n >= 0
//@ post: i == n
int x, n, i, j;
x = 0;
while (x < n) { x = x + 1; }
i = 0;
while (i < n) {
  j = 0;
  while (j < x) { j = j + 1; }
  i = i + 1;
}
"""


# --- loop order --------------------------------------------------------------------


def test_loop_order_is_loop_tree_post_order():
    p = parse_program("""\
int a, b, c, d;
while (a < 1) { a = a + 1; }
if (b > 0) {
  while (b < 5) { b = b + 1; }
} else {
  while (c < 5) {
    while (d < 5) { d = d + 1; }
    c = c + 1;
  }
}
while (a < 9) {
  while (b < 9) { b = b + 1; }
  a = a + 1;
}
""")
    # ids are pre-order: 0 top, 1 then-arm, 2/3 else-arm nest, 4/5 last nest
    assert loop_order(p.body) == [0, 1, 3, 2, 5, 4]


def test_summarize_top_level_loop_before_nest(solver):
    # the nest's inner loop is deeper, but the top-level loop comes first
    # in its reaching sequence and so must be summarized first
    p = parse_program(TOP_THEN_NEST)
    ctx, report = run_pipeline(p, TOP_THEN_NEST, solver=solver)
    assert list(ctx.summaries) == [0, 2, 1]
    assert report.status == "valid"
    assert [lr.status for lr in report.loops] == ["valid"] * 3


# --- traversal -------------------------------------------------------------------


def test_summarize_single_loop(solver):
    p, _ = load(CORPUS / "count_up.mc")
    ctx = summarize(p, solver)
    inv = ctx.loop_summaries()[0]
    assert solver.check(implies(inv, P("x <= n")).script).is_unsat
    # with the negated guard it settles the exit obligation x == n
    assert check_invariant(build_problem(p, 0, ctx.loop_summaries()), inv, solver).is_valid
    assert list(ctx.summaries) == [0]
    assert ctx.summaries[0].origin == "combinor"


def test_summarize_nested_loops_inner_first(solver):
    p, _ = load(CORPUS / "nested_loop.mc")
    ctx = summarize(p, solver)
    assert list(ctx.summaries) == [1, 0]
    inner = ctx.loop_summaries()[1]
    assert solver.check(implies(inner, P("j <= n")).script).is_unsat


def test_summarize_branch_before_loop(solver):
    # the branch is resolved by path expansion in the loop's reaching
    # sequence; it needs no summary of its own
    p, text = load(CORPUS / "branch_before_loop.mc")
    ctx, report = run_pipeline(p, text, solver=solver)
    assert list(ctx.summaries) == [0]
    assert ctx.summaries[0].predicate != P_TRUE
    assert report.status == "valid"
    (lr,) = report.loops
    assert lr.status == "valid" and lr.rounds == 0


def test_summarize_exhausted_records_gap(solver):
    # max_rounds=0 disables generation, forcing the exhausted path
    p, _ = load(CORPUS / "count_up.mc")
    ctx = summarize(p, solver, budget=GeneratorBudget(max_rounds=0))
    assert ctx.loop_summaries()[0] == P_TRUE


def test_head_samples_taken_once_per_loop(solver, monkeypatch):
    import pathinv.summarize as summarize_mod

    calls = []
    real = summarize_mod.sample_head_states

    def counting(p, lid):
        calls.append(lid)
        return real(p, lid)

    monkeypatch.setattr(summarize_mod, "sample_head_states", counting)
    p, text = load(CORPUS / "nested_loop.mc")
    _, report = run_pipeline(p, text, solver=solver)
    assert report.status == "valid"
    assert sorted(calls) == [0, 1]


# --- final check -------------------------------------------------------------------


def test_final_check_valid(solver):
    p, _ = load(CORPUS / "count_up.mc")
    ctx = summarize(p, solver)
    report = final_check(p, ctx, solver=solver, program_name="count_up")
    assert report.status == "valid"
    (lr,) = report.loops
    assert lr.loop_id == 0 and lr.status == "valid"
    assert report.smt_queries > 0


def test_final_check_refines_weak_summary(solver):
    p, _ = load(CORPUS / "count_up.mc")
    ctx = make_context(p)  # no summarization: summary defaults to true
    report = final_check(p, ctx, solver=solver)
    assert report.status == "valid"
    (lr,) = report.loops
    assert lr.rounds > 0  # refinement actually ran
    assert solver.check(
        implies(P(lr.invariant), P("x <= n")).script).is_unsat


def test_final_check_failure_reports_counterexamples(solver):
    p, _ = load(CORPUS / "triple_step.mc")
    ctx = make_context(p)
    report = final_check(p, ctx, solver=solver,
                         budget=GeneratorBudget(max_candidates=20))
    assert report.status == "failed"
    (lr,) = report.loops
    assert lr.status in ("init_fail", "preserve_fail", "term_fail")
    assert lr.counterexamples
    ce = lr.counterexamples[0]
    assert ce["kind"] in ("init", "preserve", "term")
    assert all(isinstance(v, int) for v in ce["state"].values())


def test_final_check_loopless_programs(solver):
    valid = parse_program("//@ post: y == 1\nint y; y = 1;")
    failed = parse_program("//@ post: y == 2\nint y; y = 1;")
    silent = parse_program("int y; y = 1;")
    for p, want in ((valid, "valid"), (failed, "failed"), (silent, "no_obligations")):
        report = final_check(p, make_context(p), solver=solver)
        assert report.status == want
        assert report.loops == []


# --- full pipeline -------------------------------------------------------------------


def test_run_pipeline_report_matches_schema(solver):
    schema = json.loads((REPO / "docs" / "report.schema.json").read_text())
    p, text = load(CORPUS / "branch_in_loop.mc")
    ctx, report = run_pipeline(p, text, solver=solver, program_name="branch_in_loop")
    d = report.to_dict()
    jsonschema.validate(d, schema)
    assert d["totals"]["status"] == "valid"
    assert d["totals"]["smt_queries"] >= sum(l["smt_queries"] for l in d["loops"])


def test_run_pipeline_deterministic_modulo_time(fresh_solver, solver):
    p, text = load(CORPUS / "two_loops.mc")
    _, r1 = run_pipeline(p, text, solver=solver)
    _, r2 = run_pipeline(p, text, solver=fresh_solver)

    def strip(d):
        d = dict(d)
        d["totals"] = {k: (0 if k == "time_ms" else v)
                       for k, v in d["totals"].items()}
        d["loops"] = [{**l, "time_ms": 0} for l in d["loops"]]
        return d

    assert strip(r1.to_dict()) == strip(r2.to_dict())


def test_pipeline_hybrid_skips_model_when_not_needed(solver):
    # hybrid summarization infers without exit obligations (strongest
    # template conjunction) and the final check accepts it, so the
    # transcript is never consulted: a bogus endpoint must not be touched
    p, text = load(CORPUS / "count_up.mc")
    llm = LlmConfig(endpoint="mock:/nonexistent/transcripts.json")
    ctx, report = run_pipeline(p, text, gen_mode="hybrid", solver=solver, llm=llm)
    assert report.status == "valid"
