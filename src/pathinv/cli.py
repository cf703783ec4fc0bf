"""Command-line interface: verify, infer, paths, bench.

Exit codes: 0 success, 1 verification failure, 2 parse/config error,
3 inconclusive (solver unknown/timeout). Text output is human-oriented;
JSON (--json) is the stable surface, and --stable-json additionally zeroes
wall-time fields so reports are byte-reproducible.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import click

from .candidates import GeneratorBudget, LlmConfig, sample_head_states
from .cfg import build_cfg, to_dot
from .errors import PathinvError, SourceError
from .frontend.ast_nodes import While, walk_stmts
from .frontend.parser import parse_expr_text, parse_program
from .frontend.printer import expr_to_str
from .hoare import INCONCLUSIVE, build_problem, check_invariant
from .logic import pred
from .paths import find_all_paths
from .smt import Solver, discover_solver
from .summarize import Report, run_pipeline

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3


def _zero_times(obj):
    if isinstance(obj, dict):
        return {k: (0 if k.endswith("time_ms") else _zero_times(v))
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_zero_times(x) for x in obj]
    return obj


def _emit_json(data: dict, stable: bool):
    if stable:
        data = _zero_times(data)
    click.echo(json.dumps(data, indent=2, sort_keys=True))


def _make_solver(solver_path: str | None, timeout_ms: int) -> Solver:
    return Solver(discover_solver(solver_path, timeout_ms))


def _make_llm(mode: str, mock: str | None, endpoint: str | None,
              model: str) -> LlmConfig | None:
    if mode == "combinor":
        return None
    if mock:
        return LlmConfig(f"mock:{mock}", model)
    if endpoint:
        return LlmConfig(endpoint, model)
    raise click.UsageError(f"--mode {mode} requires --mock FILE or --llm-endpoint URL")


def _parse_file(path: str):
    text = Path(path).read_text()
    return parse_program(text), text


def solver_options(f):
    f = click.option("--solver", "solver_path", default=None,
                     help="Path to an SMT solver binary (default: discover).")(f)
    f = click.option("--timeout-ms", default=10_000, show_default=True,
                     help="Per-query solver timeout.")(f)
    return f


def mode_options(f):
    f = click.option("--mode", "gen_mode", default="combinor", show_default=True,
                     type=click.Choice(["combinor", "llm", "hybrid"]))(f)
    f = click.option("--llm-endpoint", default=None, help="Chat-completions URL.")(f)
    f = click.option("--llm-model", default="default", show_default=True)(f)
    f = click.option("--mock", default=None, type=click.Path(),
                     help="Canned LLM transcript file (hermetic runs).")(f)
    f = click.option("--budget-rounds", default=4, show_default=True,
                     help="Max generate/check rounds per loop.")(f)
    f = click.option("--no-ce-filter", "no_ce_filter", is_flag=True,
                     help="Disable counterexample pre-filtering of candidates "
                          "(ablation; verdicts are unchanged, only slower).")(f)
    return f


def output_options(f):
    f = click.option("--json", "as_json", is_flag=True, help="Emit a JSON report.")(f)
    f = click.option("--stable-json", is_flag=True,
                     help="JSON with wall-time fields zeroed (byte-reproducible).")(f)
    return f


@click.group()
@click.version_option(package_name="pathinv")
def main():
    """Branch-aware loop invariant inference and verification for MiniC."""


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--invariant", "invariants", multiple=True, metavar="K=EXPR",
              help="Invariant for loop K; repeatable. Defaults to gold annotations.")
@solver_options
@output_options
def verify(file, invariants, solver_path, timeout_ms, as_json, stable_json):
    """Check supplied (or annotated gold) invariants for every loop."""
    try:
        p, _ = _parse_file(file)
        loop_ids = [s.loop_id for s in walk_stmts(p.body) if isinstance(s, While)]
        supplied = {}
        for item in invariants:
            k, _, text = item.partition("=")
            supplied[int(k)] = pred(parse_expr_text(text))
        for a in p.annotations:
            if a.kind == "gold_invariant" and a.loop_id not in supplied:
                supplied[a.loop_id] = pred(a.formula)
        missing = [k for k in loop_ids if k not in supplied]
        if missing:
            raise click.UsageError(
                f"no invariant for loop(s) {missing}; use --invariant K=EXPR")
    except (PathinvError, ValueError) as exc:
        _fail_config(exc)

    solver = _make_solver(solver_path, timeout_ms)
    results = []
    for k in loop_ids:
        hp = build_problem(p, k, supplied)
        v = check_invariant(hp, supplied[k], solver)
        results.append((k, v))

    code = EXIT_OK
    loops_json = []
    for k, v in results:
        entry = {"loop_id": k, "invariant": str(supplied[k]), "status": v.status}
        line = f"loop {k}: {v.status}  [{supplied[k]}]"
        if v.counterexample is not None:
            ce = v.counterexample
            entry["counterexample"] = {
                "kind": ce.kind, "state": dict(sorted(ce.state.items())),
                "post_state": dict(sorted(ce.post_state.items())) if ce.post_state else None,
            }
            line += f"\n  state: {ce.state}"
            if ce.post_state is not None:
                line += f"\n  post state: {ce.post_state}"
        if v.status == INCONCLUSIVE:
            code = max(code, EXIT_INCONCLUSIVE)
        elif not v.is_valid:
            code = max(code, EXIT_FAILED)
        loops_json.append(entry)
        if not as_json and not stable_json:
            click.echo(line)
    if as_json or stable_json:
        _emit_json({"program": Path(file).stem, "loops": loops_json,
                    "solver": solver.config.name,
                    "smt_queries": solver.query_count}, stable_json)
    sys.exit(code)


@main.command()
@click.argument("file", type=click.Path(exists=True))
@solver_options
@mode_options
@output_options
@click.option("--seed", default=0, show_default=True,
              help="Seed for randomized utilities (kept for reproducibility).")
def infer(file, solver_path, timeout_ms, gen_mode, llm_endpoint, llm_model,
          mock, budget_rounds, no_ce_filter, as_json, stable_json, seed):
    """Infer and verify loop invariants for one program."""
    random.seed(seed)
    try:
        p, text = _parse_file(file)
        llm = _make_llm(gen_mode, mock, llm_endpoint, llm_model)
    except PathinvError as exc:
        _fail_config(exc)
    solver = _make_solver(solver_path, timeout_ms)
    budget = GeneratorBudget(max_rounds=budget_rounds)
    try:
        _, report = run_pipeline(p, text, gen_mode, budget, solver, llm,
                                 program_name=Path(file).stem,
                                 use_ce_filter=not no_ce_filter)
    except PathinvError as exc:
        _fail_config(exc)
    _print_report(report, as_json, stable_json)
    sys.exit(_report_exit_code(report))


def _report_exit_code(report: Report) -> int:
    if any(lr.status == INCONCLUSIVE for lr in report.loops):
        return EXIT_INCONCLUSIVE
    if report.status == "failed":
        return EXIT_FAILED
    return EXIT_OK


def _print_report(report: Report, as_json: bool, stable_json: bool):
    if as_json or stable_json:
        _emit_json(report.to_dict(), stable_json)
        return
    click.echo(f"program: {report.program}  [{report.mode}, solver={report.solver}]")
    for lr in report.loops:
        click.echo(f"  loop {lr.loop_id}: {lr.status}  I = {lr.invariant}  "
                   f"(rounds={lr.rounds}, queries={lr.smt_queries})")
        for ce in lr.counterexamples[:3]:
            click.echo(f"    ce[{ce['kind']}] {ce['state']}")
    click.echo(f"overall: {report.status}  "
               f"({report.smt_queries} queries, {report.time_ms} ms)")


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--dot", "as_dot", is_flag=True, help="Emit the CFG as Graphviz DOT.")
@click.option("--json", "as_json", is_flag=True)
def paths(file, as_dot, as_json):
    """Enumerate execution-path segments (or dump the CFG with --dot)."""
    try:
        p, _ = _parse_file(file)
    except PathinvError as exc:
        _fail_config(exc)
    g = build_cfg(p)
    if as_dot:
        click.echo(to_dot(g), nl=False)
        return
    ps = find_all_paths(g)
    if as_json:
        data = [{
            "region": type(s.region).__name__,
            "loop_id": getattr(s.region, "loop_id", None),
            "branch_id": getattr(s.region, "branch_id", None),
            "polarity": getattr(s.region, "polarity", None),
            "depth": s.depth,
            "assumed": [expr_to_str(a) for a in s.assumed],
            "stmts": len(s.stmts),
        } for s in ps.segments]
        click.echo(json.dumps(data, indent=2))
        return
    for s in ps.segments:
        assumed = " && ".join(expr_to_str(a) for a in s.assumed) or "true"
        click.echo(f"{type(s.region).__name__:<10} depth={s.depth} "
                   f"assumed=[{assumed}] stmts={len(s.stmts)}")


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@solver_options
@mode_options
@output_options
@click.option("--compare", default=None, metavar="MODES",
              help="Comma-separated modes to run side by side.")
@click.option("--output", default="bench.json", show_default=True,
              type=click.Path(), help="Where to write the JSON results.")
@click.option("--seed", default=0, show_default=True)
def bench(directory, solver_path, timeout_ms, gen_mode, llm_endpoint, llm_model,
          mock, budget_rounds, no_ce_filter, as_json, stable_json, compare,
          output, seed):
    """Run inference over every .mc file in a directory and tabulate."""
    random.seed(seed)
    modes = [m.strip() for m in compare.split(",")] if compare else [gen_mode]
    try:
        llms = {m: _make_llm(m, mock, llm_endpoint, llm_model) for m in modes}
    except PathinvError as exc:
        _fail_config(exc)
    files = sorted(Path(directory).glob("*.mc"))
    budget = GeneratorBudget(max_rounds=budget_rounds)

    def run_one(path: Path, mode: str) -> dict:
        solver = _make_solver(solver_path, timeout_ms)  # one per program and mode
        try:
            p = parse_program(path.read_text())
            _, report = run_pipeline(p, path.read_text(), mode, budget,
                                     solver, llms[mode], program_name=path.stem,
                                     use_ce_filter=not no_ce_filter)
            return report.to_dict()
        except PathinvError as exc:
            return {"program": path.stem, "mode": mode,
                    "error": f"{type(exc).__name__}: {exc}",
                    "totals": {"status": "error", "smt_queries": 0, "time_ms": 0}}

    results = {(f, m): run_one(f, m) for f in files for m in modes}

    entries = [results[(f, m)] for f in files for m in modes]
    per_mode = {}
    for m in modes:
        mode_entries = [results[(f, m)] for f in files]
        solved = sum(1 for e in mode_entries
                     if e["totals"]["status"] in ("valid", "no_obligations"))
        n = len(mode_entries) or 1
        per_mode[m] = {
            "solved": solved,
            "total": len(mode_entries),
            "mean_time_ms": sum(e["totals"]["time_ms"] for e in mode_entries) // n,
            "mean_smt_queries": sum(e["totals"]["smt_queries"] for e in mode_entries) // n,
        }
    data = {"results": entries, "aggregate": per_mode, "modes": modes}
    Path(output).write_text(json.dumps(_zero_times(data) if stable_json else data,
                                       indent=2, sort_keys=True) + "\n")

    if as_json or stable_json:
        _emit_json(data, stable_json)
    else:
        width = max([len(f.stem) for f in files] or [7])
        header = f"{'program':<{width}}  " + "  ".join(f"{m:<10}" for m in modes)
        click.echo(header)
        click.echo("-" * len(header))
        for f in files:
            row = f"{f.stem:<{width}}  "
            row += "  ".join(f"{results[(f, m)]['totals']['status']:<10}" for m in modes)
            click.echo(row)
        for m in modes:
            agg = per_mode[m]
            click.echo(f"[{m}] solved {agg['solved']}/{agg['total']}  "
                       f"mean {agg['mean_time_ms']} ms, "
                       f"{agg['mean_smt_queries']} queries")
    click.echo(f"wrote {output}")


def _fail_config(exc: Exception):
    if isinstance(exc, SourceError):
        click.echo(f"error: {exc} (line {exc.line}, col {exc.col})", err=True)
    else:
        click.echo(f"error: {exc}", err=True)
    sys.exit(EXIT_CONFIG)


if __name__ == "__main__":
    main()
