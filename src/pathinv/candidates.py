"""Candidate invariant generation: clause store, combinor, and LLM backend.

The deterministic pipeline keeps atomic clauses (connective-free linear
comparisons) in an ordered, deduplicated ExprStore and enumerates boolean
combinations of them in size-lexicographic order. Each clause is
evaluated once per loop-head sample and once per counterexample state,
giving integer truth bitmasks; a combination is screened by AND/OR of
those masks, and a formula is built only for the combinations that pass.
Counterexamples from failed checks accumulate in a CeSet, which extends
its per-clause masks as they arrive, so pruning never costs a solver
call. An LLM backend can contribute clauses through the same store; a
`mock:` provider replays committed transcripts so tests stay hermetic.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import json
import logging
import operator
import os
import re
import time
from dataclasses import dataclass, field, replace
from math import comb

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
    """Counterexamples accumulated during inference; unique by (kind, state).

    Entry t owns bit t of every mask: per kind, and per clause for the
    entries whose state (and, for `preserve`, post state) satisfies it.
    A clause's masks are extended to new entries when next asked for.
    """
    entries: list[Counterexample] = field(default_factory=list)
    _seen: set = field(default_factory=set, repr=False)
    _kind_bits: dict = field(default_factory=lambda: dict.fromkeys(
        ("init", "preserve", "term"), 0), repr=False, compare=False)
    _clause_bits: dict = field(default_factory=dict, repr=False, compare=False)

    def add(self, ce: Counterexample) -> bool:
        ident = ce.identity()
        if ident in self._seen:
            return False
        self._seen.add(ident)
        if ce.kind in self._kind_bits:
            self._kind_bits[ce.kind] |= 1 << len(self.entries)
        self.entries.append(ce)
        return True

    def _truth(self, c: Clause) -> tuple[int, int]:
        """Masks of the entries whose state, and whose post state, satisfy c."""
        done, pre, post = self._clause_bits.get(c.expr, (0, 0, 0))
        if done < len(self.entries):
            for t in range(done, len(self.entries)):
                ce = self.entries[t]
                if eval_pred(c.expr, ce.state):
                    pre |= 1 << t
                if ce.kind == "preserve" and eval_pred(c.expr, ce.post_state):
                    post |= 1 << t
            self._clause_bits[c.expr] = (len(self.entries), pre, post)
        return pre, post

    def admits(self, groups) -> bool:
        """`filter_by_ces` for the DNF `groups`: OR across groups of the
        AND of each group's clauses."""
        if not self.entries:
            return True
        every = (1 << len(self.entries)) - 1
        pre = post = 0
        for group in groups:
            gpre = gpost = every
            for c in group:
                cpre, cpost = self._truth(c)
                gpre &= cpre
                gpost &= cpost
            pre |= gpre
            post |= gpost
        kinds = self._kind_bits
        return not (kinds["init"] & ~pre or kinds["preserve"] & pre & ~post
                    or kinds["term"] & pre)

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
    # DNF of `formula` as clause groups (OR of ANDs); None if not known
    groups: tuple[tuple[Clause, ...], ...] | None = None


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
    an obligation. A candidate with clause groups is decided on the
    CeSet's clause masks; one without is evaluated on its formula.
    """
    if cand.groups is not None:
        return ces.admits(cand.groups)
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


def _lex_rank(combo, n: int) -> int:
    """Position of the sorted index tuple `combo` in
    itertools.combinations(range(n), len(combo))."""
    k = len(combo)
    return comb(n, k) - 1 - sum(comb(n - 1 - c, k - t) for t, c in enumerate(combo))


def combine(store: ExprStore, budget: GeneratorBudget, ces: CeSet,
            head_samples=(), generation: int = 0, origin: str = "combinor"):
    """Size-lexicographic candidate stream: single clauses, conjunctions up
    to max_combination_size, then 2-way disjunctions of small conjunctions.
    Candidates failing the ceSet or a recorded loop-head state are skipped
    before they cost a solver call.

    Every decision is taken on truth bitmasks over the head samples and
    the ceSet, and a formula is built only for a yielded candidate.
    `examined` and `scanned` still count every combination of the full
    stream, so the MAX_ENUMERATED and MAX_SCANNED caps cut it at the same
    place as a formula-by-formula walk.
    """
    clauses = list(store)
    n = len(clauses)
    full = (1 << len(head_samples)) - 1
    # bit i of masks[j]: clause j holds in head sample i
    masks = [sum(1 << i for i, s in enumerate(head_samples) if eval_pred(c.expr, s))
             for c in clauses]

    def emit(groups):
        formula = _conj([c.expr for c in groups[0]])
        if len(groups) == 2:
            formula = Binary("or", formula, _conj([c.expr for c in groups[1]]))
        used = tuple(c for g in groups for c in g)
        return Candidate(pred(formula), used, generation, origin, groups)

    # a conjunction holds on every sample iff each of its clauses does, so
    # the survivors are the combinations of always-true clauses, and each
    # one's stream position is its lexicographic rank among all clauses
    always = [i for i in range(n) if masks[i] == full]
    examined = 0
    for size in range(1, budget.max_combination_size + 1):
        for combo in itertools.combinations(always, size):
            if examined + _lex_rank(combo, n) >= MAX_ENUMERATED:
                return
            groups = (tuple(clauses[i] for i in combo),)
            if ces.admits(groups):
                yield emit(groups)
        examined += comb(n, size)
        if examined > MAX_ENUMERATED:
            return

    # disjunctions: (conjunction) or (conjunction), sides of size <= 2.
    # With head samples available, a useful disjunct must be true on some
    # observed states but not all (uniformly-true clauses belong in
    # conjunctions; uniformly-false ones cover nothing reachable), and the
    # two sides together must cover every observed state, which also makes
    # the disjunction hold on every sample. Sides are tuples of positions
    # in `pool`; for each left side only the right sides that cover what
    # it misses are visited, and the scan count skips over the others.
    side_size = min(2, budget.max_combination_size)
    if head_samples:
        pool = [i for i in range(n) if 0 < masks[i] < full]
    else:
        pool = list(range(n))
    p = len(pool)
    pmask = [masks[i] for i in pool]
    sides_by_size = [[(q,) for q in range(p)]]
    if side_size >= 2:
        sides_by_size.append(list(itertools.combinations(range(p), 2)))
    side_masks = [[functools.reduce(operator.and_, (pmask[q] for q in side), full)
                   for side in sides] for sides in sides_by_size]
    covers: dict = {}   # missed samples -> pool positions true on all of them

    def covering_rights(b, need, lo):
        """Indices >= lo into sides_by_size[b] of the sides true on every
        sample in `need`, in increasing order."""
        if need not in covers:
            covers[need] = [q for q in range(p) if pmask[q] & need == need]
        cover = covers[need]
        if b == 0:
            yield from cover[bisect.bisect_left(cover, lo):]
            return
        # rank of (q1, q2) in combinations(range(p), 2); any right side
        # with index >= lo starts at or after the first element of side lo
        first = sides_by_size[1][lo][0] if lo < len(sides_by_size[1]) else p
        for x in range(bisect.bisect_left(cover, first), len(cover)):
            q1 = cover[x]
            base = q1 * (2 * p - q1 - 1) // 2 - q1 - 1
            for q2 in cover[x + 1:]:
                if base + q2 >= lo:
                    yield base + q2

    shapes = [(0, 0)]
    if side_size >= 2:
        shapes += [(0, 1), (1, 1)]
    scanned = 0
    for a, b in shapes:
        rights = sides_by_size[b]
        for li, left in enumerate(sides_by_size[a]):
            lo = li + 1 if a == b else 0
            start = scanned - lo   # scan count just before right side 0
            scanned += len(rights) - lo
            for r in covering_rights(b, full & ~side_masks[a][li], lo):
                if start + r >= MAX_SCANNED:
                    return
                right = rights[r]
                if set(left) & set(right):
                    continue
                examined += 1
                if examined > MAX_ENUMERATED:
                    return
                groups = (tuple(clauses[pool[q]] for q in left),
                          tuple(clauses[pool[q]] for q in right))
                if ces.admits(groups):
                    yield emit(groups)
            if scanned > MAX_SCANNED:
                return


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

    import urllib.request  # http.client and ssl cost ~3 MB; only this path needs them

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
    req = urllib.request.Request(cfg.endpoint, data=json.dumps(payload).encode(),
                                 headers=headers, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return json.load(resp)["choices"][0]["message"]["content"]
    except (OSError, LookupError, TypeError, ValueError) as exc:
        # OSError covers URLError and HTTPError; ValueError bad JSON;
        # LookupError/TypeError a reply without choices[0].message.content
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
            # the clause grouping determines the formula's text, and the
            # store's canonical keys identify its clauses across rounds
            fkey = tuple(tuple(c.key for c in g) for g in cand.groups)
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
                failures.append((str(cand.formula), v.status))
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
