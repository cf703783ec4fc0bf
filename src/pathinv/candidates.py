"""Candidate invariant generation: clause store, combinor, and LLM backend.

The deterministic pipeline keeps atomic clauses (connective-free linear
comparisons) in an ordered, deduplicated ExprStore and enumerates boolean
combinations of them in size-lexicographic order. Counterexamples from
failed checks accumulate in a CeSet and prune later candidates by plain
integer evaluation, never by extra solver calls. An LLM backend can
contribute clauses through the same store; a `mock:` provider replays
committed transcripts so tests stay hermetic.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import re
import time
from dataclasses import dataclass, field, replace

from .errors import LlmFormatError, LlmTransportError, ParseError
from .frontend.ast_nodes import Binary, Expr, IntLit, expr_vars, int_constants
from .frontend.parser import parse_expr_text
from .frontend.printer import expr_to_str
from .hoare import (
    Counterexample,
    HoareProblem,
    INIT_FAIL,
    PRESERVE_FAIL,
    TERM_FAIL,
    Verdict,
    check_initialization,
    check_invariant,
    check_preservation,
)
from .interp import eval_pred
from .logic import (
    CMP_NEGATION,
    P_TRUE,
    Predicate,
    atom_key,
    boolean_atoms,
    pred,
    pred_and,
)
from .smt import Solver

log = logging.getLogger(__name__)

_TEMPLATE_OPS = ("<", "<=", "==", ">=", ">")

# hard caps per candidate stream, so a ceSet that filters almost
# everything cannot make enumeration spin without progress: one on
# candidates actually evaluated, one on raw combinations scanned
MAX_ENUMERATED = 200_000
MAX_SCANNED = 5_000_000


@dataclass(frozen=True)
class Clause:
    """A connective-free linear comparison with a provenance tag."""
    expr: Expr
    source: str  # template | llm | seeded
    key: tuple = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return expr_to_str(self.expr)


@dataclass
class ExprStore:
    """Ordered, deduplicated clause store (dedup by canonical atom key)."""
    clauses: list[Clause] = field(default_factory=list)
    _keys: set = field(default_factory=set, repr=False)

    def add(self, e: Expr, source: str) -> bool:
        key = atom_key(e)
        if key is None or key[0] == "const" or key in self._keys:
            return False
        self._keys.add(key)
        self.clauses.append(Clause(e, source, key))
        return True

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self):
        return iter(self.clauses)


@dataclass
class CeSet:
    """Counterexamples accumulated during inference; unique by (kind, state)."""
    entries: list[Counterexample] = field(default_factory=list)
    _seen: set = field(default_factory=set, repr=False)

    def add(self, ce: Counterexample) -> bool:
        ident = ce.identity()
        if ident in self._seen:
            return False
        self._seen.add(ident)
        self.entries.append(ce)
        return True

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class Candidate:
    formula: Predicate
    clauses_used: tuple[Clause, ...]
    generation: int = 0
    origin: str = "combinor"  # combinor | llm


@dataclass(frozen=True)
class GeneratorBudget:
    max_clauses_per_round: int = 8
    max_combination_size: int = 3
    max_rounds: int = 4
    total_timeout: int = 120_000          # ms
    # deterministic cutoff so exhaustion does not depend on wall time
    max_candidates: int = 500

    def __post_init__(self):
        for name in ("max_clauses_per_round", "max_combination_size",
                     "total_timeout", "max_candidates"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be nonnegative")


def _is_program_atom(e: Expr, var_names) -> bool:
    """A clause usable as invariant material: linear comparison over
    program variables only (no skolem names, no ground truths)."""
    key = atom_key(e)
    if key is None or key[0] == "const":
        return False
    return all("$" not in v for v in expr_vars(e)) and expr_vars(e) <= frozenset(var_names)


def seed_clauses(hp: HoareProblem) -> ExprStore:
    """Harvest atoms from P, B and the obligations, then instantiate the
    comparison templates v ~ k, v ~ w, v+w ~ k, v-w ~ k."""
    store = ExprStore()
    sources: list[Expr] = [hp.pre.expr, hp.guard.expr]
    sources += [ob.formula.expr for ob in hp.obligations]
    sources += [a for bp in hp.body_paths for a in bp.assumed]
    for e in sources:
        for atom in boolean_atoms(e):
            if _is_program_atom(atom, hp.var_names):
                store.add(atom, "seeded")

    consts = set(int_constants([s for bp in hp.body_paths for s in bp.stmts]))
    for e in sources:
        consts |= {lit.value for atom in boolean_atoms(e)
                   for lit in _int_lits(atom)}
    consts |= {0, 1, -1}
    const_list = sorted(consts)

    vs = list(hp.var_names)
    for v in vs:
        for k in const_list:
            for op in _TEMPLATE_OPS:
                store.add(Binary(op, _var(v), IntLit(k)), "template")
    for v, w in itertools.combinations(vs, 2):
        for op in _TEMPLATE_OPS:
            store.add(Binary(op, _var(v), _var(w)), "template")
        for k in const_list:
            for op in _TEMPLATE_OPS:
                store.add(Binary(op, Binary("+", _var(v), _var(w)), IntLit(k)), "template")
                store.add(Binary(op, Binary("-", _var(v), _var(w)), IntLit(k)), "template")
    return store


def _var(name: str):
    from .frontend.ast_nodes import Var
    return Var(name)


def _int_lits(e: Expr):
    from .frontend.ast_nodes import walk_exprs
    return [x for x in walk_exprs(e) if isinstance(x, IntLit)]


def filter_by_ces(cand: Candidate, ces: CeSet) -> bool:
    """Keep/drop by concrete evaluation against accumulated counterexamples.

    Drop when the candidate would provably repeat a recorded failure:
    false at an init state (which satisfies P), held-then-broken around a
    preservation step, or true at an exit state whose suffix run violated
    an obligation.
    """
    e = cand.formula.expr
    for ce in ces:
        if ce.kind == "init":
            if not eval_pred(e, ce.state):
                return False
        elif ce.kind == "preserve":
            if eval_pred(e, ce.state) and not eval_pred(e, ce.post_state):
                return False
        elif ce.kind == "term":
            if eval_pred(e, ce.state):
                return False
    return True


def _passes_head_samples(e: Expr, samples) -> bool:
    return all(eval_pred(e, s) for s in samples)


def combine(store: ExprStore, budget: GeneratorBudget, ces: CeSet,
            head_samples=(), generation: int = 0, origin: str = "combinor"):
    """Size-lexicographic candidate stream: single clauses, conjunctions up
    to max_combination_size, then 2-way disjunctions of small conjunctions.
    Candidates failing the ceSet or a recorded loop-head state are skipped
    before they cost a solver call.
    """
    clauses = list(store)
    examined = 0
    scanned = 0

    def emit(used):
        exprs = [c.expr for c in used]
        formula = exprs[0]
        for e in exprs[1:]:
            formula = Binary("and", formula, e)
        return Candidate(pred(formula), tuple(used), generation, origin)

    def admissible(cand):
        return (filter_by_ces(cand, ces)
                and _passes_head_samples(cand.formula.expr, head_samples))

    for size in range(1, budget.max_combination_size + 1):
        for combo in itertools.combinations(clauses, size):
            examined += 1
            if examined > MAX_ENUMERATED:
                return
            cand = emit(list(combo))
            if admissible(cand):
                yield cand

    # disjunctions: (conjunction) or (conjunction), sides of size <= 2.
    # With head samples available, a useful disjunct must be true on some
    # observed states but not all (uniformly-true clauses belong in
    # conjunctions; uniformly-false ones cover nothing reachable), and the
    # two sides together must cover every observed state. Both facts are
    # cheap bitmask tests that gate the expensive filters.
    side_size = min(2, budget.max_combination_size)
    full_mask = (1 << len(head_samples)) - 1 if head_samples else 0
    if head_samples:
        cmask = [sum(1 << i for i, s in enumerate(head_samples)
                     if eval_pred(c.expr, s)) for c in clauses]
        pool = [i for i in range(len(clauses)) if 0 < cmask[i] < full_mask]
    else:
        cmask = None
        pool = list(range(len(clauses)))

    def side_mask(side):
        m = full_mask
        for i in side:
            m &= cmask[i]
        return m

    sides_by_size = [[(i,) for i in pool]]
    if side_size >= 2:
        sides_by_size.append(list(itertools.combinations(pool, 2)))

    shapes = [(0, 0)]
    if side_size >= 2:
        shapes += [(0, 1), (1, 1)]
    for a, b in shapes:
        if a == b:
            pairs = itertools.combinations(sides_by_size[a], 2)
        else:
            pairs = itertools.product(sides_by_size[a], sides_by_size[b])
        for left, right in pairs:
            scanned += 1
            if scanned > MAX_SCANNED:
                return
            if set(left) & set(right):
                continue
            if cmask is not None and side_mask(left) | side_mask(right) != full_mask:
                continue
            examined += 1
            if examined > MAX_ENUMERATED:
                return
            lexpr = _conj([clauses[i].expr for i in left])
            rexpr = _conj([clauses[i].expr for i in right])
            used = [clauses[i] for i in left + right]
            cand = Candidate(pred(Binary("or", lexpr, rexpr)), tuple(used),
                             generation, origin)
            if admissible(cand):
                yield cand


def _conj(exprs):
    out = exprs[0]
    for e in exprs[1:]:
        out = Binary("and", out, e)
    return out


# --- LLM backend ------------------------------------------------------------


@dataclass(frozen=True)
class LlmConfig:
    endpoint: str                    # URL, or "mock:<path>" for transcripts
    model: str = "default"
    temperature: float = 0.0
    max_tokens: int = 512
    api_key_env: str = "PATHINV_LLM_KEY"

    @property
    def is_mock(self) -> bool:
        return self.endpoint.startswith("mock:")


@dataclass(frozen=True)
class PromptContext:
    program: str
    pre: str
    guard: str
    post: str
    summaries: str = "(none)"
    template: str = "invariant"
    guidance: str = ""


def render_prompt(ctx: PromptContext, ces: CeSet) -> str:
    from importlib import resources

    text = (resources.files("pathinv") / "prompts" / f"{ctx.template}.txt").read_text()
    ce_lines = []
    for ce in ces:
        state = ", ".join(f"{k}={v}" for k, v in sorted(ce.state.items()))
        line = f"- {ce.kind} failure at state {{{state}}}"
        if ce.post_state is not None:
            post = ", ".join(f"{k}={v}" for k, v in sorted(ce.post_state.items()))
            line += f" leading to {{{post}}}"
        ce_lines.append(line)
    if ctx.guidance:
        ce_lines.append(ctx.guidance)
    fills = {
        "program": ctx.program,
        "pre": ctx.pre,
        "guard": ctx.guard,
        "post": ctx.post or "(none)",
        "summaries": ctx.summaries,
        "ceset": "\n".join(ce_lines) or "(none)",
    }
    for name, value in fills.items():
        text = text.replace("{" + name + "}", value)
    return text


def prompt_key(prompt: str) -> str:
    return hashlib.sha256(prompt.encode()).hexdigest()[:16]


def _complete(prompt: str, cfg: LlmConfig) -> str:
    if cfg.is_mock:
        path = cfg.endpoint[len("mock:"):]
        try:
            with open(path) as f:
                transcripts = json.load(f)
        except OSError as exc:
            raise LlmTransportError(f"cannot read transcript file {path}: {exc}")
        key = prompt_key(prompt)
        if key not in transcripts:
            raise LlmTransportError(f"no transcript for prompt hash {key} in {path}")
        return transcripts[key]

    import requests

    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(cfg.api_key_env)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    payload = {
        "model": cfg.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_tokens,
    }
    try:
        resp = requests.post(cfg.endpoint, json=payload, headers=headers, timeout=60)
        resp.raise_for_status()
        return resp.json()["choices"][0]["message"]["content"]
    except (requests.RequestException, KeyError, ValueError) as exc:
        raise LlmTransportError(str(exc))


_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def parse_clause_lines(response: str, var_names) -> list[Expr]:
    """Clauses from a fenced code block, one per line; bad lines dropped."""
    m = _FENCE_RE.search(response)
    body = m.group(1) if m else response
    out = []
    for line in body.splitlines():
        line = line.strip().rstrip(";")
        if not line or line.startswith("#") or line.startswith("//"):
            continue
        try:
            e = parse_expr_text(line)
        except ParseError:
            log.warning("dropping unparseable clause line: %r", line)
            continue
        if not (isinstance(e, Binary) and e.op in CMP_NEGATION):
            log.warning("dropping non-comparison clause line: %r", line)
            continue
        if not _is_program_atom(e, var_names):
            log.warning("dropping non-linear or out-of-scope clause: %r", line)
            continue
        out.append(e)
    return out


def llm_generate(ctx: PromptContext, ces: CeSet, cfg: LlmConfig,
                 var_names=()) -> list[Expr]:
    prompt = render_prompt(ctx, ces)
    response = _complete(prompt, cfg)
    clauses = parse_clause_lines(response, var_names)
    if not clauses:
        raise LlmFormatError("no usable clauses in LLM response")
    return clauses


# --- the inference loop -----------------------------------------------------


@dataclass(frozen=True)
class InferResult:
    status: str                       # found | exhausted
    candidate: Candidate | None = None
    verdict: Verdict | None = None
    rounds: int = 0
    query_count: int = 0
    candidates_checked: int = 0
    ce_set: CeSet = field(default_factory=CeSet)
    best_failures: tuple = ()         # (formula str, verdict status) samples
    candidates_enumerated: int = 0    # includes ce-filtered candidates

    @property
    def found(self) -> bool:
        return self.status == "found"


_GUIDANCE = {
    INIT_FAIL: ("Previous candidates were false in the initial state; "
                "propose clauses that hold when the loop is first reached."),
    TERM_FAIL: ("Previous candidates were too weak to establish the "
                "postcondition; propose stronger clauses."),
}


def houdini_conjunction(hp: HoareProblem, store: ExprStore, solver: Solver,
                        ces: CeSet) -> tuple[Predicate, tuple[Clause, ...]]:
    """Strongest inductive conjunction of store clauses (for loops whose
    exit obligations are trivial). Standard weakening loop: start from all
    clauses, drop whatever a counterexample falsifies."""
    alive = [c for c in store
             if _passes_head_samples(c.expr, hp.head_samples)
             and filter_by_ces(Candidate(pred(c.expr), (c,)), ces)]
    while True:
        inv = pred_and(*(pred(c.expr) for c in alive)) if alive else P_TRUE
        v = check_initialization(hp.pre, inv, solver, hp.var_names)
        if v.status == INIT_FAIL:
            state = v.counterexample.state
            alive = [c for c in alive if eval_pred(c.expr, state)]
            ces.add(v.counterexample)
            continue
        if not v.is_valid:
            return inv, tuple(alive)   # inconclusive: keep what we have
        v = check_preservation(inv, hp.guard, hp.body_paths, solver, hp.var_names)
        if v.status == PRESERVE_FAIL:
            post = v.counterexample.post_state
            alive = [c for c in alive if eval_pred(c.expr, post)]
            ces.add(v.counterexample)
            continue
        alive = _drop_implied(alive, solver)
        return pred_and(*(pred(c.expr) for c in alive)) if alive else P_TRUE, tuple(alive)


def _drop_implied(alive, solver):
    """Remove conjuncts already entailed by the rest (readability only;
    the conjunction's meaning is unchanged)."""
    from .logic import implies

    kept = list(alive)
    for c in list(kept):
        rest = [d for d in kept if d is not c]
        if not rest:
            break
        conj = pred_and(*(pred(d.expr) for d in rest))
        if solver.check(implies(conj, pred(c.expr)).script).is_unsat:
            kept = rest
    return kept


def infer_invariant(hp: HoareProblem, gen_mode: str = "combinor",
                    budget: GeneratorBudget | None = None,
                    solver: Solver | None = None,
                    llm: LlmConfig | None = None,
                    ctx: PromptContext | None = None,
                    use_ce_filter: bool = True) -> InferResult:
    """Generate-and-check loop for one Hoare problem.

    Combinor mode walks the deterministic candidate stream; llm mode asks
    the model for clauses each round and combines those; hybrid merges LLM
    clauses into the template store. When the problem carries no exit
    obligations the strongest inductive conjunction is computed directly
    instead of searching for any single passing candidate.
    """
    if gen_mode not in ("combinor", "llm", "hybrid"):
        raise ValueError(f"unknown gen_mode {gen_mode!r}")
    budget = budget or GeneratorBudget()
    if solver is None:
        from .smt import discover_solver
        solver = Solver(discover_solver())
    ces = CeSet()
    start_queries = solver.query_count
    deadline = time.monotonic() + budget.total_timeout / 1000.0

    if budget.max_rounds == 0:
        return InferResult("exhausted", ce_set=ces)

    use_templates = gen_mode in ("combinor", "hybrid")
    store = seed_clauses(hp) if use_templates else _harvest_only(hp)

    if hp.trivially_post:
        inv, used = houdini_conjunction(hp, store, solver, ces)
        cand = Candidate(inv, used, 0, "combinor")
        return InferResult("found", cand, Verdict("valid"), 1,
                           solver.query_count - start_queries,
                           candidates_checked=0, ce_set=ces)

    checked = 0
    enumerated = 0
    seen_formulas: set = set()
    failures: list = []
    guidance = ""
    rounds = 0

    while rounds < budget.max_rounds:
        rounds += 1
        if gen_mode in ("llm", "hybrid"):
            if llm is None or ctx is None:
                raise ValueError("llm mode requires an LlmConfig and PromptContext")
            round_ctx = replace(ctx, guidance=guidance)
            clauses = llm_generate(round_ctx, ces, llm, hp.var_names)
            for e in clauses[:budget.max_clauses_per_round]:
                store.add(e, "llm")

        origin = "llm" if gen_mode == "llm" else "combinor"
        # ce-filtering happens here, not inside combine, so the stream
        # position (and thus `enumerated`) is identical with and without it
        stream = combine(store, budget, CeSet(), hp.head_samples,
                         generation=rounds - 1, origin=origin)
        exhausted_stream = True
        for cand in stream:
            fkey = expr_to_str(cand.formula.expr)
            if fkey in seen_formulas:
                continue
            seen_formulas.add(fkey)
            enumerated += 1
            if use_ce_filter and not filter_by_ces(cand, ces):
                continue
            if checked >= budget.max_candidates or time.monotonic() > deadline:
                exhausted_stream = False
                break
            checked += 1
            v = check_invariant(hp, cand.formula, solver)
            if v.is_valid:
                return InferResult("found", cand, v, rounds,
                                   solver.query_count - start_queries,
                                   checked, ces, candidates_enumerated=enumerated)
            if v.counterexample is not None:
                ces.add(v.counterexample)
            if len(failures) < 8:
                failures.append((fkey, v.status))
            if v.status in _GUIDANCE:
                guidance = _GUIDANCE[v.status]
        if gen_mode == "combinor":
            break  # a single deterministic pass; nothing new next round
        if not exhausted_stream:
            break

    return InferResult("exhausted", rounds=rounds,
                       query_count=solver.query_count - start_queries,
                       candidates_checked=checked, ce_set=ces,
                       best_failures=tuple(failures),
                       candidates_enumerated=enumerated)


def _harvest_only(hp: HoareProblem) -> ExprStore:
    """Store with only the atoms present in P, B and the obligations."""
    store = ExprStore()
    sources = [hp.pre.expr, hp.guard.expr] + [ob.formula.expr for ob in hp.obligations]
    for e in sources:
        for atom in boolean_atoms(e):
            if _is_program_atom(atom, hp.var_names):
                store.add(atom, "seeded")
    return store


# --- concrete loop-head sampling --------------------------------------------


def sample_head_states(program, loop_id: int, values=(-2, -1, 0, 1, 2),
                       max_states: int = 64, step_cap: int = 2_000):
    """Observed loop-head states from bounded runs over a small input grid.

    Sound as a pruning aid: every returned state is reachable under the
    program's precondition, so a real invariant must hold at each one.
    """
    from .interp import run_program
    from .logic import pred as _p

    decls = list(program.decls)
    if len(decls) > 3:
        values = (-1, 0, 1)
    precond = program.precondition
    states = []
    seen = set()
    for combo in itertools.product(values, repeat=len(decls)):
        env = dict(zip(decls, combo))
        if precond is not None and not eval_pred(precond, env):
            continue
        res = run_program(program.body, env,
                          nondet_values=itertools.cycle(values),
                          step_cap=step_cap)
        if res.rejected:
            continue
        for st in res.head_states.get(loop_id, ()):
            key = tuple(sorted(st.items()))
            if key not in seen:
                seen.add(key)
                states.append(dict(st))
                if len(states) >= max_states:
                    return tuple(states)
    return tuple(states)
