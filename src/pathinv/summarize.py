"""Loop-by-loop summarization and the whole-program invariant pass.

Loops are summarized in loop-tree post-order, in source order: an inner
loop before the loop around it, and an earlier loop before a later one,
so every loop a problem reaches is already replaced by havoc plus its
invariant. Branches need no summary of their own: `hoare.build_problem`
resolves them by body-path expansion. A final pass re-checks every loop
summary against the full program (with real exit obligations) and
refines the ones that are too weak.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .frontend.ast_nodes import If, Program, While, walk_stmts
from .frontend.printer import pretty_print
from .hoare import HoareProblem, build_problem, check_invariant
from .candidates import (
    GeneratorBudget,
    LlmConfig,
    PromptContext,
    infer_invariant,
    sample_head_states,
)
from .logic import P_TRUE, Predicate, implies
from .smt import Solver, discover_solver

# Unused here, but perfbench/tracing.py rebinds them on this module and fails without them.
from .cfg import build_cfg  # noqa: F401
from .logic import strongest_post_traced  # noqa: F401
from .paths import find_all_paths  # noqa: F401


@dataclass(frozen=True)
class Summary:
    predicate: Predicate
    origin: str   # combinor | llm; the generation mode for a loop left at true


@dataclass
class Context:
    """One program's loop summaries and loop-head samples."""
    program: Program
    program_text: str
    summaries: dict = field(default_factory=dict)   # loop id -> Summary, in summarization order
    samples: dict = field(default_factory=dict)     # loop id -> head states

    def loop_summaries(self) -> dict[int, Predicate]:
        return {lid: s.predicate for lid, s in self.summaries.items()}

    def head_samples(self, loop_id: int) -> tuple:
        if loop_id not in self.samples:
            self.samples[loop_id] = sample_head_states(self.program, loop_id)
        return self.samples[loop_id]


def make_context(p: Program, program_text: str | None = None) -> Context:
    return Context(p, program_text if program_text is not None else pretty_print(p))


def loop_order(stmts) -> list[int]:
    """Loop ids in loop-tree post-order, in source order."""
    out: list[int] = []
    for s in stmts:
        if isinstance(s, While):
            out += loop_order(s.body) + [s.loop_id]
        elif isinstance(s, If):
            out += loop_order(s.then) + loop_order(s.orelse)
    return out


def _prompt_ctx(hp: HoareProblem, ctx: Context, template: str) -> PromptContext:
    summaries = "\n".join(
        f"- loop {lid}: {s.predicate}" for lid, s in ctx.summaries.items()) or "(none)"
    post = " && ".join(str(ob.formula) for ob in hp.obligations)
    return PromptContext(
        program=ctx.program_text,
        pre=str(hp.pre),
        guard=str(hp.guard),
        post=post,
        summaries=summaries,
        template=template,
    )


def hierarch_summarize(ctx: Context, gen_mode: str = "combinor",
                       budget: GeneratorBudget | None = None,
                       solver: Solver | None = None,
                       llm: LlmConfig | None = None,
                       use_ce_filter: bool = True) -> Context:
    """Infer a summary for each loop, inner loops first.

    Summarization problems carry no exit obligations: those are settled by
    final_check once every loop has a summary. A loop whose search is
    exhausted is summarized as `true`.
    """
    budget = budget or GeneratorBudget()
    solver = solver or Solver(discover_solver())
    for lid in loop_order(ctx.program.body):
        hp = build_problem(ctx.program, lid, ctx.loop_summaries(),
                           head_samples=ctx.head_samples(lid), with_obligations=False)
        res = infer_invariant(
            hp, gen_mode, budget, solver, llm,
            _prompt_ctx(hp, ctx, "invariant") if gen_mode != "combinor" else None,
            use_ce_filter=use_ce_filter)
        ctx.summaries[lid] = (Summary(res.candidate.formula, res.candidate.origin)
                              if res.found else Summary(P_TRUE, gen_mode))
    return ctx


# --- final whole-program pass ----------------------------------------------


@dataclass
class LoopReport:
    loop_id: int
    invariant: str
    status: str
    rounds: int = 0
    smt_queries: int = 0
    time_ms: int = 0
    counterexamples: list = field(default_factory=list)
    origin: str = "combinor"


@dataclass
class Report:
    program: str
    loops: list[LoopReport] = field(default_factory=list)
    mode: str = "combinor"
    solver: str = "bundled"
    status: str = "valid"          # valid | failed | no_obligations
    smt_queries: int = 0
    time_ms: int = 0

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "loops": [{
                "loop_id": lr.loop_id,
                "invariant": lr.invariant,
                "status": lr.status,
                "rounds": lr.rounds,
                "smt_queries": lr.smt_queries,
                "time_ms": lr.time_ms,
                "counterexamples": lr.counterexamples,
                "origin": lr.origin,
            } for lr in self.loops],
            "mode": self.mode,
            "solver": self.solver,
            "totals": {
                "status": self.status,
                "smt_queries": self.smt_queries,
                "time_ms": self.time_ms,
            },
        }


def _render_ces(ces) -> list:
    out = []
    for ce in ces:
        out.append({
            "kind": ce.kind,
            "state": dict(sorted(ce.state.items())),
            "post_state": dict(sorted(ce.post_state.items())) if ce.post_state else None,
        })
    return out


def _check_loopless(p: Program, solver: Solver) -> str:
    """Zero-loop program: asserts and posts follow (or not) from exact sp."""
    from .hoare import build_loopless_obligations

    ok = True
    any_ob = False
    for antecedent, consequent in build_loopless_obligations(p):
        any_ob = True
        res = solver.check(implies(antecedent, consequent).script)
        if not res.is_unsat:
            ok = False
    if not any_ob:
        return "no_obligations"
    return "valid" if ok else "failed"


def final_check(p: Program, ctx: Context, gen_mode: str = "combinor",
                budget: GeneratorBudget | None = None,
                solver: Solver | None = None,
                llm: LlmConfig | None = None,
                program_name: str = "program",
                use_ce_filter: bool = True) -> Report:
    """Re-check each loop summary against the full program and refine the
    ones that fail; the Report carries the outcome per loop."""
    budget = budget or GeneratorBudget()
    solver = solver or Solver(discover_solver())
    t_start = time.monotonic()
    start_queries = solver.query_count
    report = Report(program_name, mode=gen_mode, solver=solver.config.name)

    loops = [s for s in walk_stmts(p.body) if isinstance(s, While)]
    if not loops:
        report.status = _check_loopless(p, solver)
        report.smt_queries = solver.query_count - start_queries
        report.time_ms = int((time.monotonic() - t_start) * 1000)
        return report

    summaries = ctx.loop_summaries()
    all_ok = True
    for w in loops:
        lid = w.loop_id
        t0 = time.monotonic()
        q0 = solver.query_count
        inv = summaries.get(lid, P_TRUE)
        origin = ctx.summaries[lid].origin if lid in ctx.summaries else gen_mode
        lr = LoopReport(lid, str(inv), "valid", origin=origin)
        hp = build_problem(p, lid, summaries, head_samples=ctx.head_samples(lid))
        v = check_invariant(hp, inv, solver)
        if not v.is_valid:
            if v.counterexample is not None:
                lr.counterexamples = _render_ces([v.counterexample])
            res = infer_invariant(
                hp, gen_mode, budget, solver, llm,
                _prompt_ctx(hp, ctx, "refine") if gen_mode != "combinor" else None,
                use_ce_filter=use_ce_filter)
            lr.rounds = res.rounds
            lr.counterexamples = _render_ces(res.ce_set)
            if res.found:
                inv = res.candidate.formula
                summaries[lid] = inv
                lr.invariant = str(inv)
                lr.origin = res.candidate.origin
            else:
                lr.status = v.status
                all_ok = False
        lr.smt_queries = solver.query_count - q0
        lr.time_ms = int((time.monotonic() - t0) * 1000)
        report.loops.append(lr)

    report.status = "valid" if all_ok else "failed"
    report.smt_queries = solver.query_count - start_queries
    report.time_ms = int((time.monotonic() - t_start) * 1000)
    return report


def run_pipeline(p: Program, program_text: str | None = None,
                 gen_mode: str = "combinor",
                 budget: GeneratorBudget | None = None,
                 solver: Solver | None = None,
                 llm: LlmConfig | None = None,
                 program_name: str = "program",
                 use_ce_filter: bool = True) -> tuple[Context, Report]:
    """Full path: loop summarization, then the final check."""
    solver = solver or Solver(discover_solver())
    q0 = solver.query_count
    t0 = time.monotonic()
    ctx = make_context(p, program_text)
    hierarch_summarize(ctx, gen_mode, budget, solver, llm,
                       use_ce_filter=use_ce_filter)
    report = final_check(p, ctx, gen_mode, budget, solver, llm, program_name,
                         use_ce_filter=use_ce_filter)
    report.smt_queries = solver.query_count - q0
    report.time_ms = int((time.monotonic() - t0) * 1000)
    return ctx, report
