"""The benchmark's operations and the checks on their outcomes.

An operation is one program inferred, or one (program, invariant) pair
checked. Each runs against a fresh bundled solver through the public API
the CLI uses: `parse_program`, `run_pipeline`, `build_problem` +
`check_invariant`, and `LlmConfig("mock:...")`. Functions are looked up
on their modules at call time, so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import gen

WORKLOADS = ("corpus", "branchy-verify", "houdini-infer")

# modules the benchmark drives or the traced run wraps
MODULES = ("frontend", "frontend.parser", "cfg", "paths", "logic", "hoare", "interp",
           "candidates", "summarize", "smt", "smt.minismt")


class Outcome:
    SOLVED = "solved"   # the expected decision
    MISS = "miss"       # a correct program left undecided (search exhausted)
    FAILED = "failed"   # wrong verdict, exception or config error


def import_pathinv(src: Path):
    """Import pathinv from `src` afresh; returns {short name: module}.

    Earlier imports are dropped first, so every call pays the full
    import cost (that is part of set-up time)."""
    for name in [m for m in sys.modules if m == "pathinv" or m.startswith("pathinv.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"pathinv.{name}") for name in MODULES}
    origin = Path(mods["summarize"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"pathinv was imported from {origin}, not from {src}")
    return mods


def zero_times(obj):
    """A report with every *time_ms field set to 0, as `--stable-json` does."""
    if isinstance(obj, dict):
        return {k: (0 if k.endswith("time_ms") else zero_times(v)) for k, v in obj.items()}
    if isinstance(obj, list):
        return [zero_times(x) for x in obj]
    return obj


@dataclass
class Op:
    """One operation and what is known about its answer."""
    name: str
    kind: str                  # infer | verify
    program: object            # parsed pathinv Program
    text: str
    model: gen.GenProgram | None = None   # for bounded execution
    mode: str = "combinor"
    llm: object = None
    loop: int = 0
    invariant: object = None   # gen expression (verify)
    invariant_pred: object = None   # the same, parsed by pathinv
    expected: str = gen.VALID


@dataclass
class Result:
    outcome: str
    record: dict               # time-zeroed, deterministic
    smt_queries: int
    detail: str = ""


def ast_to_model(e):
    """A pathinv AST expression or statement list in the gen model."""
    kind = type(e).__name__
    if kind == "IntLit":
        return e.value
    if kind == "Var":
        return e.name
    if kind == "Nondet":
        return ("nondet",)
    if kind == "Unary":
        inner = ast_to_model(e.operand)
        return ("!", inner) if e.op == "not" else ("-", 0, inner)
    if kind == "Binary":
        op = {"and": "&&", "or": "||"}.get(e.op, e.op)
        return (op, ast_to_model(e.left), ast_to_model(e.right))
    raise TypeError(f"cannot convert {kind}")


def stmts_to_model(stmts):
    out = []
    for s in stmts:
        kind = type(s).__name__
        if kind == "Assign":
            out.append(("=", s.target, ast_to_model(s.value)))
        elif kind == "If":
            out.append(("if", ast_to_model(s.cond), stmts_to_model(s.then),
                        stmts_to_model(s.orelse)))
        elif kind == "While":
            out.append(("while", ast_to_model(s.cond), stmts_to_model(s.body)))
        elif kind == "Assume":
            out.append(("assume", ast_to_model(s.cond)))
        elif kind == "Assert":
            out.append(("assert", ast_to_model(s.cond)))
        else:
            raise TypeError(f"cannot convert {kind}")
    return tuple(out)


def program_model(name: str, p) -> gen.GenProgram:
    """The gen model of a parsed corpus program; every variable is an input."""
    post = gen.conj(*(ast_to_model(q) for q in p.postconditions)) \
        if p.postconditions else ("==", 0, 0)
    pre = ast_to_model(p.precondition) if p.precondition is not None else ("==", 0, 0)
    return gen.GenProgram(name, tuple(p.decls), pre, post, stmts_to_model(p.body),
                          inputs=tuple(p.decls))


# --- building the workloads -----------------------------------------------------


def build_ops(workload: str, seed: int, root: Path, mods) -> list[Op]:
    """Generate (or read) and parse every operation of a workload, in a
    seeded order."""
    parser = mods["frontend.parser"]
    parse = parser.parse_program
    ops: list[Op] = []
    if workload == "corpus":
        transcripts = root / "corpus" / "llm" / "transcripts.json"
        llm = mods["candidates"].LlmConfig(f"mock:{transcripts}")
        for mode, folder in (("combinor", root / "corpus"), ("llm", root / "corpus" / "llm")):
            for path in sorted(folder.glob("*.mc")):
                text = path.read_text()
                p = parse(text)
                ops.append(Op(path.stem, "infer", p, text, program_model(path.stem, p),
                              mode, llm if mode == "llm" else None))
    elif workload == "branchy-verify":
        for gp in gen.branchy_workload(seed):
            text = gp.text()
            p = parse(text)
            for loop, pairs in gp.invariants:
                for inv, expected in pairs:
                    pred = mods["logic"].pred(parser.parse_expr_text(gen.render(inv)))
                    ops.append(Op(f"{gp.name}:{expected}", "verify", p, text, gp, loop=loop,
                                  invariant=inv, invariant_pred=pred, expected=expected))
    elif workload == "houdini-infer":
        for gp in gen.houdini_workload():
            text = gp.text()
            ops.append(Op(gp.name, "infer", parse(text), text, gp))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"order:{seed}").shuffle(ops)
    return ops


# --- running one operation ------------------------------------------------------


def run_op(op: Op, mods) -> Result:
    smt = mods["smt"]
    solver = smt.Solver(smt.bundled_solver())
    if op.kind == "infer":
        _, report = mods["summarize"].run_pipeline(
            op.program, op.text, op.mode, None, solver, op.llm, program_name=op.name)
        record = zero_times(report.to_dict())
        return Result(Outcome.SOLVED if report.status == "valid" else Outcome.MISS,
                      record, solver.query_count)
    hoare = mods["hoare"]
    hp = hoare.build_problem(op.program, op.loop, {op.loop: op.invariant_pred})
    v = hoare.check_invariant(hp, op.invariant_pred, solver)
    ce = v.counterexample
    record = {"program": op.name, "status": v.status,
              "counterexample": None if ce is None else
              {"kind": ce.kind, "state": dict(sorted(ce.state.items())),
               "post_state": None if ce.post_state is None else dict(sorted(ce.post_state.items()))}}
    if v.status == op.expected:
        return Result(Outcome.SOLVED, record, solver.query_count)
    if v.status == "inconclusive":
        return Result(Outcome.MISS, record, solver.query_count)
    return Result(Outcome.FAILED, record, solver.query_count,
                  f"expected {op.expected}, got {v.status}")


def guarded_run(op: Op, mods) -> Result:
    """run_op, with any exception counted as a failed operation."""
    try:
        return run_op(op, mods)
    except Exception as exc:  # noqa: BLE001 - every error is a failed operation
        return Result(Outcome.FAILED, {"program": op.name, "error": type(exc).__name__},
                      0, f"{type(exc).__name__}: {exc}")


# --- checking outcomes independently ------------------------------------------


def check_result(op: Op, res: Result, mods) -> str:
    """Empty when the outcome survives the independent checks, else why not.

    - An inferred `valid` must survive bounded concrete execution: each
      loop's invariant holds at every head visit, every assert holds and
      the postcondition holds at exit (criterion 4).
    - A verify counterexample must replay in the gen model: an init_fail
      state is the loop's first head state for its inputs and violates the
      invariant; a preserve_fail state meets the invariant and the guard,
      one iteration of the body from it gives the reported post state,
      and that state violates the invariant.
    """
    if res.outcome != Outcome.SOLVED:
        return ""
    if op.kind == "infer":
        parse_expr = mods["frontend.parser"].parse_expr_text
        invs = {lr["loop_id"]: ast_to_model(parse_expr(lr["invariant"]))
                for lr in res.record["loops"]}
        if not gen.sound_under_execution(op.model, invs, _values(op.model)):
            return "inferred invariants fail bounded concrete execution"
        return ""
    ce = res.record["counterexample"]
    if op.expected == gen.VALID:
        return "" if ce is None else "valid verdict carries a counterexample"
    if ce is None:
        return "no counterexample"
    if op.expected == gen.INIT_FAIL:
        state = ce["state"]
        env = dict.fromkeys(op.model.decls, 0)
        env["n"] = state["n"]
        _, heads, _ = gen.run(op.model, env)
        if heads[op.loop][0] != state:
            return "init state is not the loop's first head state"
        return "init state meets the invariant" if gen.evaluate(op.invariant, state) else ""
    return _check_preserve(op, ce)


def _check_preserve(op: Op, ce: dict) -> str:
    pre, post = ce["state"], ce["post_state"]
    loop = next(s for s in op.model.body if s[0] == "while")
    if not (gen.evaluate(op.invariant, pre) and gen.evaluate(loop[1], pre)):
        return "pre state misses the invariant or the guard"
    one_iteration = gen.GenProgram("step", op.model.decls, ("==", 0, 0), ("==", 0, 0), loop[2])
    after, _, _ = gen.run(one_iteration, pre)
    if after != post:
        return f"replayed post state {post} differs from one iteration: {after}"
    if gen.evaluate(op.invariant, post):
        return "post state meets the invariant"
    return ""


def _values(model: gen.GenProgram):
    # criterion 4's grid for corpus programs; the generated ones have one input
    return range(-6, 7) if len(model.inputs) > 1 else range(-2, 9)


def digest(records: list[dict]) -> str:
    """sha256 of the time-zeroed records, in the workload's canonical order."""
    text = json.dumps(sorted(records, key=lambda r: r["program"]), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
