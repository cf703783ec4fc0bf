"""Verification conditions for the while rule and their classification.

A loop invariant I for {P} while B do S {Q} must pass three checks:
initialization (P implies I), preservation (each loop-body path maintains
I under B and its branch assumptions), and exit sufficiency (I and not-B,
pushed through the code after the loop, implies every obligation).

Counterexamples carry the solver model projected onto pre-state program
variables plus the concretely re-executed post state, so every failure is
replayable without the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MissingSummaryError
from .frontend.ast_nodes import (
    Assert,
    Assume,
    Binary,
    Expr,
    Havoc,
    If,
    Program,
    Stmt,
    While,
    modified_vars,
    walk_stmts,
)
from .interp import exec_straight_line
from .logic import (
    FreshNames,
    P_TRUE,
    Predicate,
    negate_expr,
    pred,
    pred_and,
    pred_not,
    pred_or,
    implies,
    strongest_post_traced,
)
from .smt import SAT, Solver, UNSAT

VALID = "valid"
INIT_FAIL = "init_fail"
PRESERVE_FAIL = "preserve_fail"
TERM_FAIL = "term_fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BodyPath:
    """One full-iteration straight-line path through a loop body."""
    assumed: tuple[Expr, ...]
    stmts: tuple[Stmt, ...]


@dataclass(frozen=True)
class Obligation:
    """Assertion that must hold after executing `cut` suffix statements."""
    cut: int
    formula: Predicate
    label: str = ""


@dataclass(frozen=True)
class HoareProblem:
    pre: Predicate
    guard: Predicate
    body_paths: tuple[BodyPath, ...]
    suffix: tuple[Stmt, ...]          # straight-line; inner loops summarized
    obligations: tuple[Obligation, ...]
    loop_id: int
    var_names: tuple[str, ...]
    head_samples: tuple = ()          # concrete loop-head states for pruning

    @property
    def trivially_post(self) -> bool:
        return not self.obligations


@dataclass(frozen=True)
class Counterexample:
    kind: str                          # init | preserve | term
    state: dict                        # program variables before the step
    post_state: dict | None = None     # after the failing path / suffix
    model: dict = field(default_factory=dict)   # full solver model
    inputs: tuple = ()                 # havoc/nondet values for replay
    segment_index: int | None = None
    obligation_index: int | None = None

    def identity(self):
        return (self.kind, tuple(sorted(self.state.items())))


@dataclass(frozen=True)
class Verdict:
    status: str
    counterexample: Counterexample | None = None
    reason: str = ""

    @property
    def is_valid(self) -> bool:
        return self.status == VALID


def _project(model: dict, var_names, pre_syms=None) -> dict:
    pre_syms = pre_syms or {}
    return {v: model.get(pre_syms.get(v, v), 0) for v in var_names}


def check_initialization(P: Predicate, I: Predicate, solver: Solver,
                         var_names=None) -> Verdict:
    res = solver.check(implies(P, I).script)
    if res.status == UNSAT:
        return Verdict(VALID)
    if res.status == SAT:
        names = var_names or sorted(P.free_vars | I.free_vars)
        ce = Counterexample("init", _project(res.model, names), model=res.model)
        return Verdict(INIT_FAIL, ce)
    return Verdict(INCONCLUSIVE, reason=f"solver returned {res.status} {res.detail}".strip())


def check_preservation(I: Predicate, B: Predicate, body_paths, solver: Solver,
                       var_names=None) -> Verdict:
    for idx, path in enumerate(body_paths):
        assumed = pred_and(*(pred(a) for a in path.assumed)) if path.assumed else P_TRUE
        sp = strongest_post_traced(pred_and(I, B, assumed), path.stmts, FreshNames())
        res = solver.check(implies(sp.predicate, I).script)
        if res.status == UNSAT:
            continue
        if res.status != SAT:
            return Verdict(INCONCLUSIVE,
                           reason=f"solver returned {res.status} on body path {idx}")
        names = var_names or sorted(I.free_vars | B.free_vars)
        state = _project(res.model, names, sp.pre_syms)
        inputs = tuple(res.model.get(s, 0) for s in sp.input_syms)
        post_env, _ = exec_straight_line(path.stmts, state, inputs)
        post_state = {v: post_env.get(v, 0) for v in names}
        ce = Counterexample("preserve", state, post_state, res.model, inputs, idx)
        return Verdict(PRESERVE_FAIL, ce)
    return Verdict(VALID)


def check_termination_cond(I: Predicate, B: Predicate, Q: Predicate,
                           solver: Solver, var_names=None) -> Verdict:
    """Exit sufficiency for a loop-adjacent postcondition (no suffix code)."""
    hp = HoareProblem(P_TRUE, B, (), (), (Obligation(0, Q),), -1,
                      tuple(var_names or sorted(I.free_vars | B.free_vars | Q.free_vars)))
    return check_exit(hp, I, solver)


def check_exit(hp: HoareProblem, I: Predicate, solver: Solver) -> Verdict:
    """I and not-guard, pushed through the suffix, must imply each obligation."""
    exit_pred = pred_and(I, pred_not(hp.guard))
    for oidx, ob in enumerate(hp.obligations):
        stmts = hp.suffix[:ob.cut]
        sp = strongest_post_traced(exit_pred, stmts, FreshNames())
        res = solver.check(implies(sp.predicate, ob.formula).script)
        if res.status == UNSAT:
            continue
        if res.status != SAT:
            return Verdict(INCONCLUSIVE,
                           reason=f"solver returned {res.status} on obligation {oidx}")
        state = _project(res.model, hp.var_names, sp.pre_syms)
        inputs = tuple(res.model.get(s, 0) for s in sp.input_syms)
        post_env, _ = exec_straight_line(stmts, state, inputs)
        post_state = {v: post_env.get(v, 0) for v in hp.var_names}
        ce = Counterexample("term", state, post_state, res.model, inputs,
                            obligation_index=oidx)
        return Verdict(TERM_FAIL, ce)
    return Verdict(VALID)


def check_invariant(hp: HoareProblem, I: Predicate, solver: Solver) -> Verdict:
    """Run the three checks in order; first failure wins."""
    v = check_initialization(hp.pre, I, solver, hp.var_names)
    if not v.is_valid:
        return v
    v = check_preservation(I, hp.guard, hp.body_paths, solver, hp.var_names)
    if not v.is_valid:
        return v
    return check_exit(hp, I, solver)


# --- problem construction ---------------------------------------------------


def _loop_replacement(w: While, summaries: dict[int, Predicate], at_exit: bool) -> list[Stmt]:
    """Sound summary of a loop: havoc what it writes, assume its invariant
    (plus the negated guard when control is past the loop)."""
    if w.loop_id not in summaries:
        raise MissingSummaryError(f"loop {w.loop_id} has no verified summary")
    inv = summaries[w.loop_id].expr
    cond = Binary("and", inv, negate_expr(w.cond)) if at_exit else inv
    return [Havoc(v) for v in sorted(modified_vars([w]))] + [Assume(cond)]


def expand_body_paths(body, summaries: dict[int, Predicate]) -> list[BodyPath]:
    """All straight-line paths through one loop iteration; branches split
    (cross product), inner loops replaced by their summaries."""
    paths: list[tuple[tuple[Expr, ...], tuple[Stmt, ...]]] = [((), ())]

    def extend(items, stmts):
        return [(a, s + tuple(stmts)) for a, s in items]

    for s in body:
        if isinstance(s, If):
            out = []
            for a, st in paths:
                for cond, arm in ((s.cond, s.then), (negate_expr(s.cond), s.orelse)):
                    for sub in expand_body_paths(arm, summaries):
                        out.append((a + (cond,) + sub.assumed, st + sub.stmts))
            paths = out
        elif isinstance(s, While):
            paths = extend(paths, _loop_replacement(s, summaries, at_exit=True))
        else:
            paths = extend(paths, [s])
    return [BodyPath(a, st) for a, st in paths]


def _find_loop_context(body, loop_id):
    """Statements on the way to the loop and after it, at every nesting
    level. Returns (chain, prefix, suffix) where chain is the list of
    enclosing (While|If, arm) hops, prefix/suffix are stmt lists at the
    loop's own level."""
    for i, s in enumerate(body):
        if isinstance(s, While) and s.loop_id == loop_id:
            return [], list(body[:i]), list(body[i + 1:])
        if isinstance(s, While):
            try:
                chain, pre, suf = _find_loop_context(s.body, loop_id)
            except LookupError:
                continue
            return [("loop", s, list(body[:i]))] + chain, pre, suf
        if isinstance(s, If):
            for arm_name, arm in (("then", s.then), ("else", s.orelse)):
                try:
                    chain, pre, suf = _find_loop_context(arm, loop_id)
                except LookupError:
                    continue
                return [("branch", s, arm_name, list(body[:i]))] + chain, pre, suf
    raise LookupError(loop_id)


def _reach_predicate(annot_pre: Predicate, reach, summaries) -> Predicate:
    """Exact state at the loop head: disjunction over the branch-resolved
    paths of the reaching sequence, each summarized by sp."""
    fresh = FreshNames()
    disjuncts = []
    for path in expand_body_paths(reach, summaries):
        base = pred_and(annot_pre, *(pred(a) for a in path.assumed))
        disjuncts.append(strongest_post_traced(base, path.stmts, fresh).predicate)
    out = disjuncts[0]
    for d in disjuncts[1:]:
        out = pred_or(out, d)
    return out


def build_loopless_obligations(p: Program):
    """(antecedent, obligation) pairs for a loop-free program: exact sp
    along every branch-resolved path up to each assert, plus the annotated
    postconditions at the end of each path."""
    annot_pre = pred(p.precondition) if p.precondition is not None else P_TRUE
    out = []
    for path in expand_body_paths(p.body, {}):
        base = pred_and(annot_pre, *(pred(a) for a in path.assumed))
        for i, s in enumerate(path.stmts):
            if isinstance(s, Assert):
                sp = strongest_post_traced(base, path.stmts[:i], FreshNames())
                out.append((sp.predicate, pred(s.cond)))
        for q in p.postconditions:
            sp = strongest_post_traced(base, path.stmts, FreshNames())
            out.append((sp.predicate, pred(q)))
    return out


def build_problem(p: Program, loop_id: int, summaries: dict[int, Predicate],
                  head_samples=(), with_obligations: bool = True) -> HoareProblem:
    """Program-level Hoare problem for one loop, with every other loop
    replaced by its verified summary.

    With `with_obligations=False` the suffix is dropped (used while
    summarizing, before later loops have summaries of their own).
    """
    target = next(w for w in walk_stmts(p.body) if isinstance(w, While)
                  and w.loop_id == loop_id)
    chain, prefix, suffix = _find_loop_context(p.body, loop_id)

    # reaching sequence: how control gets to the loop head; branches stay
    # exact (resolved by path expansion), other loops become summaries
    reach: list[Stmt] = []
    annot_pre = pred(p.precondition) if p.precondition is not None else P_TRUE
    for hop in chain:
        if hop[0] == "loop":
            _, w, before = hop
            reach += list(before)
            # arbitrary iteration of the enclosing loop: forget what it
            # writes, then assume its summary and guard
            reach += [Havoc(v) for v in sorted(modified_vars(w.body))]
            if w.loop_id in summaries:
                reach.append(Assume(summaries[w.loop_id].expr))
            reach.append(Assume(w.cond))
        else:
            _, s, arm_name, before = hop
            reach += list(before)
            reach.append(Assume(s.cond if arm_name == "then" else negate_expr(s.cond)))
    reach += list(prefix)

    # obligations only exist for loops whose exit leads to top-level code;
    # a nested loop's effect is checked through its enclosing loop
    obligations: list[Obligation] = []
    suffix_stmts: list[Stmt] = []
    if not chain and with_obligations:
        for s in suffix:
            if isinstance(s, Assert):
                obligations.append(Obligation(len(suffix_stmts), pred(s.cond),
                                              label=str(pred(s.cond))))
                suffix_stmts.append(s)
            elif isinstance(s, While):
                suffix_stmts += _loop_replacement(s, summaries, at_exit=True)
            elif isinstance(s, If):
                suffix_stmts += [Havoc(v) for v in sorted(modified_vars([s]))]
            else:
                suffix_stmts.append(s)
        for q in p.postconditions:
            obligations.append(Obligation(len(suffix_stmts), pred(q), label=str(pred(q))))

    return HoareProblem(
        pre=_reach_predicate(annot_pre, reach, summaries),
        guard=pred(target.cond),
        body_paths=tuple(expand_body_paths(target.body, summaries)),
        suffix=tuple(suffix_stmts),
        obligations=tuple(obligations),
        loop_id=loop_id,
        var_names=tuple(p.decls),
        head_samples=tuple(head_samples),
    )
