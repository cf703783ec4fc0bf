"""Independent oracles shared by unit and acceptance tests.

These deliberately re-derive expected results from first principles
(concrete execution, brute force enumeration) rather than reusing the
library's own machinery, so a bug can't hide on both sides of an
assertion.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from pathinv.frontend.ast_nodes import (
    Assert,
    Assign,
    Assume,
    Binary,
    Havoc,
    IntLit,
    Nondet,
    Unary,
    Var,
)
from pathinv.interp import eval_expr, eval_pred
from pathinv.smt.omega import LinForm, OmegaUnknown


# --- witnessed evaluation of strongest postconditions ------------------------


def witness_assignment(stmts, init_env, inputs):
    """Execute a straight-line segment, recording the value of every
    skolem name (`x$k`, `nd$k`) the sp transformer would introduce.

    Returns (full_assignment, accepted): with the witnessed skolems the
    sp predicate must evaluate to exactly `accepted` — equalities pin all
    intermediate values once the pre state and inputs are fixed.
    """
    env = dict(init_env)
    skolems = {}
    feed = iter(inputs)
    counter = itertools.count()
    accepted = True

    def value_of(e):
        # mirrors the transformer's traversal order for nondet() naming
        if isinstance(e, Nondet):
            name = f"nd${next(counter)}"
            skolems[name] = next(feed)
            return skolems[name]
        if isinstance(e, Unary):
            v = value_of(e.operand)
            return -v if e.op == "neg" else (not v)
        if isinstance(e, Binary):
            lv, rv = value_of(e.left), value_of(e.right)
            return eval_expr(Binary(e.op, IntLit(lv), IntLit(rv)), {})
        return eval_expr(e, env)

    for s in stmts:
        if isinstance(s, Assign):
            v = value_of(s.value)
            skolems[f"{s.target}${next(counter)}"] = env[s.target]
            env[s.target] = v
        elif isinstance(s, Havoc):
            skolems[f"{s.target}${next(counter)}"] = env[s.target]
            env[s.target] = next(feed)
        elif isinstance(s, Assume):
            if not eval_pred(s.cond, env):
                accepted = False  # keep executing: values stay pinned
        elif isinstance(s, Assert):
            pass
    return {**skolems, **env}, accepted


# --- random straight-line segments -------------------------------------------


def random_linear_expr(rng: random.Random, names, depth=0):
    pick = rng.randrange(6 if depth < 2 else 2)
    if pick == 0:
        return IntLit(rng.randint(-3, 3))
    if pick == 1:
        return Var(rng.choice(names))
    if pick == 2:
        return Binary("+", random_linear_expr(rng, names, depth + 1),
                      random_linear_expr(rng, names, depth + 1))
    if pick == 3:
        return Binary("-", random_linear_expr(rng, names, depth + 1),
                      random_linear_expr(rng, names, depth + 1))
    if pick == 4:
        return Binary("*", IntLit(rng.randint(-2, 3)),
                      random_linear_expr(rng, names, depth + 1))
    return Unary("neg", random_linear_expr(rng, names, depth + 1))


def random_atom(rng: random.Random, names):
    op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
    return Binary(op, random_linear_expr(rng, names),
                  random_linear_expr(rng, names))


def random_segment(rng: random.Random, names, max_len=5, allow_inputs=True):
    stmts = []
    for _ in range(rng.randint(1, max_len)):
        kind = rng.randrange(10)
        if kind < 6:
            value = random_linear_expr(rng, names)
            if allow_inputs and rng.randrange(8) == 0:
                value = Binary("+", value, Nondet())
            stmts.append(Assign(rng.choice(names), value))
        elif kind < 8:
            stmts.append(Assume(random_atom(rng, names)))
        elif allow_inputs and kind == 8:
            stmts.append(Havoc(rng.choice(names)))
        else:
            stmts.append(Assert(random_atom(rng, names)))
    return tuple(stmts)


def count_inputs(stmts):
    n = 0
    for s in stmts:
        if isinstance(s, Havoc):
            n += 1
        elif isinstance(s, Assign):
            stack = [s.value]
            while stack:
                e = stack.pop()
                if isinstance(e, Nondet):
                    n += 1
                elif isinstance(e, Unary):
                    stack.append(e.operand)
                elif isinstance(e, Binary):
                    stack += [e.left, e.right]
    return n


# --- bounded whole-program soundness oracle ----------------------------------


def bounded_soundness_violations(program, invariants, values, step_cap=10_000,
                                 nondet_values=(0, 1, -1, 2)):
    """Check inferred invariants against bounded concrete execution.

    Runs the program from every initial state in values^#vars that meets
    the precondition; the invariant of each loop must hold at every visit
    to its head, and every postcondition must hold at normal exit.
    Returns a list of violation descriptions (empty = sound).
    """
    violations = []
    decls = list(program.decls)
    pre = program.precondition
    for combo in itertools.product(values, repeat=len(decls)):
        env = dict(zip(decls, combo))
        if pre is not None and not eval_pred(pre, env):
            continue
        from pathinv.interp import run_program
        res = run_program(program.body, env,
                          nondet_values=itertools.cycle(nondet_values),
                          step_cap=step_cap)
        if res.rejected or res.exhausted:
            continue
        for lid, inv in invariants.items():
            for state in res.head_states.get(lid, ()):
                if not eval_pred(inv, state):
                    violations.append((dict(env), "invariant", lid, state))
        for q in program.postconditions:
            if not eval_pred(q, res.env):
                violations.append((dict(env), "post", None, dict(res.env)))
    return violations


# --- region decomposition oracle ---------------------------------------------


def region_census(program):
    """Brute-force census of control regions straight off the AST:
    one top-level region, one per loop, two per branch (the independent
    check for path enumeration's union semantics)."""
    from pathinv.frontend.ast_nodes import If, While, walk_stmts

    loops = 0
    branches = 0
    for s in walk_stmts(program.body):
        if isinstance(s, While):
            loops += 1
        elif isinstance(s, If):
            branches += 1
    return {"segments": 1 + loops + 2 * branches,
            "loops": loops, "branches": branches}


def expected_segments(program):
    """Region segments derived straight from the AST by brute-force DFS,
    bypassing the CFG entirely. Each segment is keyed by
    (region key, assumed-guard strings, backbone stmt reprs, depth, pos)."""
    from pathinv.frontend.ast_nodes import If, While
    from pathinv.frontend.printer import expr_to_str
    from pathinv.logic import negate_expr

    out = set()

    def walk(body, key, depth, assumed, pos):
        backbone = tuple(repr(s) for s in body if not isinstance(s, (If, While)))
        out.add((key, tuple(expr_to_str(a) for a in assumed), backbone, depth, pos))
        for s in body:
            if isinstance(s, While):
                walk(s.body, ("loop", s.loop_id), depth + 1,
                     assumed + (s.cond,), s.pos.line)
            elif isinstance(s, If):
                walk(s.then, ("arm", True, s.pos.line), depth + 1,
                     assumed + (s.cond,), s.pos.line)
                walk(s.orelse, ("arm", False, s.pos.line), depth + 1,
                     assumed + (negate_expr(s.cond),), s.pos.line)

    walk(program.body, ("top",), 0, (), 0)
    return out


def segment_key(seg):
    """Key a PathSegment the same way expected_segments keys regions."""
    from pathinv.frontend.printer import expr_to_str
    from pathinv.paths import BranchArm, Loop, TopLevel

    r = seg.region
    if isinstance(r, TopLevel):
        key = ("top",)
    elif isinstance(r, Loop):
        key = ("loop", r.loop_id)
    else:
        assert isinstance(r, BranchArm)
        key = ("arm", r.polarity, seg.pos)
    return (key, tuple(expr_to_str(a) for a in seg.assumed),
            tuple(repr(s) for s in seg.stmts), seg.depth, seg.pos)


def backbone_stmts(body):
    """Straight-line statements of one region, compounds excluded."""
    from pathinv.frontend.ast_nodes import If, While

    return tuple(s for s in body if not isinstance(s, (If, While)))


# --- reference candidate stream ----------------------------------------------


def reference_filter(formula, ces) -> bool:
    """The ceSet filter evaluated on a formula's AST: drop a formula false
    at an init state, held-then-broken around a preservation step, or true
    at a bad exit state."""
    for ce in ces:
        if ce.kind == "init" and not eval_pred(formula, ce.state):
            return False
        if ce.kind == "preserve" and eval_pred(formula, ce.state) \
                and not eval_pred(formula, ce.post_state):
            return False
        if ce.kind == "term" and eval_pred(formula, ce.state):
            return False
    return True


def reference_combine(store, budget, ces, head_samples=()):
    """The Combinor's candidate stream, built formula by formula.

    Every combination becomes a `Candidate` that is then evaluated on the
    AST: against each counterexample and each head sample. The library's
    `combine` must yield the same sequence while deciding on per-clause
    truth bitmasks. Caps are read from `pathinv.candidates` at call time,
    so a test that monkeypatches them moves both streams.
    """
    from pathinv import candidates as lib
    from pathinv.logic import pred

    clauses = list(store)
    examined = 0
    scanned = 0

    def admissible(formula):
        return (reference_filter(formula, ces)
                and all(eval_pred(formula, s) for s in head_samples))

    def conj(exprs):
        out = exprs[0]
        for e in exprs[1:]:
            out = Binary("and", out, e)
        return out

    for size in range(1, budget.max_combination_size + 1):
        for combo in itertools.combinations(clauses, size):
            examined += 1
            if examined > lib.MAX_ENUMERATED:
                return
            formula = conj([c.expr for c in combo])
            if admissible(formula):
                yield lib.Candidate(pred(formula), combo)

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
            if scanned > lib.MAX_SCANNED:
                return
            if set(left) & set(right):
                continue
            if cmask is not None and side_mask(left) | side_mask(right) != full_mask:
                continue
            examined += 1
            if examined > lib.MAX_ENUMERATED:
                return
            formula = Binary("or", conj([clauses[i].expr for i in left]),
                             conj([clauses[i].expr for i in right]))
            if admissible(formula):
                yield lib.Candidate(pred(formula),
                                    tuple(clauses[i] for i in left + right))


# --- reference Omega test ----------------------------------------------------
# `pathinv.smt.omega` before it skipped the real shadow of exact
# eliminations and the re-normalisation of constraints already in lowest
# terms: the same code with its names prefixed. `solve_lia` must return the
# same model, and raise OmegaUnknown on the same systems.


def _ref_gcd_of(coeffs: dict[str, int]) -> int:
    return math.gcd(*[abs(k) for k in coeffs.values()]) if coeffs else 0


def _ref_subst(form: LinForm, var: str, repl: LinForm) -> LinForm:
    coeffs, const = form
    if var not in coeffs:
        return form
    a = coeffs[var]
    rc, rk = repl
    out = {v: k for v, k in coeffs.items() if v != var}
    for v, k in rc.items():
        out[v] = out.get(v, 0) + a * k
    return {v: k for v, k in out.items() if k != 0}, const + a * rk


def _ref_eval(form: LinForm, model: dict[str, int]) -> int:
    coeffs, const = form
    return sum(k * model.setdefault(v, 0) for v, k in coeffs.items()) + const


def _ref_smod(a: int, m: int) -> int:
    r = a % m
    return r - m if r > m // 2 else r


class ReferenceOmegaSolver:
    def __init__(self, max_depth: int = 400):
        self.max_depth = max_depth
        self.fresh = 0

    def solve(self, eqs: list[LinForm], ineqs: list[LinForm], depth: int = 0):
        if depth > self.max_depth:
            raise OmegaUnknown
        eqs2, ineqs2 = [], []
        for coeffs, const in eqs:
            if not coeffs:
                if const != 0:
                    return None
                continue
            g = _ref_gcd_of(coeffs)
            if const % g != 0:
                return None
            eqs2.append(({v: k // g for v, k in coeffs.items()}, const // g))
        for coeffs, const in ineqs:
            if not coeffs:
                if const > 0:
                    return None
                continue
            g = _ref_gcd_of(coeffs)
            ineqs2.append(({v: k // g for v, k in coeffs.items()}, -((-const) // g)))
        if eqs2:
            return self._eliminate_equality(eqs2, ineqs2, depth)
        if ineqs2:
            return self._eliminate_inequality(eqs2, ineqs2, depth)
        return {}

    # --- equalities ---

    def _eliminate_equality(self, eqs, ineqs, depth):
        coeffs, const = eqs[0]
        unit = next((v for v, k in coeffs.items() if abs(k) == 1), None)
        if unit is not None:
            a = coeffs[unit]  # a * unit + rest + const == 0 -> unit = -(rest+const)/a
            repl = ({v: -k * a for v, k in coeffs.items() if v != unit}, -const * a)
            rest_eqs = [_ref_subst(f, unit, repl) for f in eqs[1:]]
            rest_ineqs = [_ref_subst(f, unit, repl) for f in ineqs]
            model = self.solve(rest_eqs, rest_ineqs, depth + 1)
            if model is None:
                return None
            model[unit] = _ref_eval(repl, model)
            return model
        # no unit coefficient: Pugh's mod-based elimination
        k = min(coeffs, key=lambda v: abs(coeffs[v]))
        if coeffs[k] < 0:
            coeffs = {v: -c for v, c in coeffs.items()}
            const = -const
        m = coeffs[k] + 1
        sigma = f"_omega{self.fresh}"
        self.fresh += 1
        repl_coeffs = {v: _ref_smod(c, m) for v, c in coeffs.items() if v != k}
        repl_coeffs = {v: c for v, c in repl_coeffs.items() if c != 0}
        repl_coeffs[sigma] = m
        repl = (repl_coeffs, _ref_smod(const, m))
        new_eqs = [_ref_subst(f, k, repl) for f in eqs]
        new_ineqs = [_ref_subst(f, k, repl) for f in ineqs]
        model = self.solve(new_eqs, new_ineqs, depth + 1)
        if model is None:
            return None
        model[k] = _ref_eval(repl, model)
        model.pop(sigma, None)
        return model

    # --- inequalities ---

    def _eliminate_inequality(self, eqs, ineqs, depth):
        variables = sorted({v for coeffs, _ in ineqs for v in coeffs})

        def cost(v):
            lo = sum(1 for c, _ in ineqs if c.get(v, 0) < 0)
            hi = sum(1 for c, _ in ineqs if c.get(v, 0) > 0)
            return (lo * hi if lo and hi else 0, variables.index(v))

        x = min(variables, key=cost)
        lowers, uppers, rest = [], [], []
        for coeffs, const in ineqs:
            a = coeffs.get(x, 0)
            r = ({v: k for v, k in coeffs.items() if v != x}, const)
            if a < 0:
                lowers.append((-a, r))   # (-a) * x >= r
            elif a > 0:
                uppers.append((a, r))    # a * x <= -r
            else:
                rest.append((coeffs, const))

        if not lowers or not uppers:
            model = self.solve([], rest, depth + 1)
            if model is None:
                return None
            return self._assign_bounded(model, x, lowers, uppers)

        def shadow(slack: bool):
            out = list(rest)
            for b, (lc, lk) in lowers:
                for a, (uc, uk) in uppers:
                    coeffs = {v: a * k for v, k in lc.items()}
                    for v, k in uc.items():
                        coeffs[v] = coeffs.get(v, 0) + b * k
                    const = a * lk + b * uk
                    if slack:
                        const += (a - 1) * (b - 1)
                    out.append(({v: k for v, k in coeffs.items() if k != 0}, const))
            return out

        model = self.solve([], shadow(slack=True), depth + 1)  # dark shadow
        if model is not None:
            return self._assign_bounded(model, x, lowers, uppers)
        if self.solve([], shadow(slack=False), depth + 1) is None:  # real shadow
            return None
        # grey region: splinter on the lower bounds
        a_max = max(a for a, _ in uppers)
        for b, (lc, lk) in lowers:
            limit = (a_max * b - a_max - b) // a_max
            for i in range(limit + 1):
                # pin b*x == (lc . y + lk) + i
                coeffs = {x: b}
                for v, k in lc.items():
                    coeffs[v] = coeffs.get(v, 0) - k
                eq = ({v: k for v, k in coeffs.items() if k != 0}, -lk - i)
                model = self.solve([eq], ineqs, depth + 1)
                if model is not None:
                    return model
        return None

    def _assign_bounded(self, model, x, lowers, uppers):
        lo = hi = None
        for b, r in lowers:
            val = math.ceil(Fraction(_ref_eval(r, model), b))
            lo = val if lo is None else max(lo, val)
        for a, r in uppers:
            val = math.floor(Fraction(-_ref_eval(r, model), a))
            hi = val if hi is None else min(hi, val)
        if lo is not None:
            model[x] = lo
        elif hi is not None:
            model[x] = hi
        else:
            model[x] = 0
        return model


def reference_solve_lia(eqs: list[LinForm], ineqs: list[LinForm]) -> dict[str, int] | None:
    """Decide a conjunction of integer linear constraints.

    Returns a satisfying assignment (variables absent from any constraint
    are omitted) or None when unsatisfiable. Raises OmegaUnknown if the
    recursion budget is exceeded.
    """
    return ReferenceOmegaSolver().solve(list(eqs), list(ineqs))
