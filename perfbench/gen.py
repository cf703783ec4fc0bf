"""Seeded MiniC program generator with answers known by construction.

Programs are built as a small model of their own (nested tuples), which is
rendered to MiniC text for pathinv and executed directly here for the
bounded concrete cross-check. No expected verdict is read from pathinv.

Knobs (ROADMAP item 1(a)): k sequential `if`s in the loop body, loop
nesting depth d, and variable count v.

Expressions: int | str (a variable) | (op, left, right), with op one of
+ - * < <= == != >= > && ||, ("!", e) and ("nondet",).  Statements:
("=", var, expr), ("if", cond, then, orelse), ("while", cond, body),
("assume", cond) and ("assert", cond).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

VALID = "valid"
INIT_FAIL = "init_fail"
PRESERVE_FAIL = "preserve_fail"

_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "&&": lambda a, b: bool(a) and bool(b),
    "||": lambda a, b: bool(a) or bool(b),
}


def render(e) -> str:
    if isinstance(e, (int, str)):
        return str(e)
    op, a, b = e
    return f"({render(a)} {op} {render(b)})"


def evaluate(e, env: dict, feed=None):
    """Value of `e` in `env`; `feed()` supplies the values of ("nondet",)."""
    if isinstance(e, int):
        return e
    if isinstance(e, str):
        return env[e]
    if e[0] == "nondet":
        return feed()
    if e[0] == "!":
        return not evaluate(e[1], env, feed)
    op, a, b = e
    return _BINOPS[op](evaluate(a, env, feed), evaluate(b, env, feed))


def conj(*es):
    out = es[0]
    for e in es[1:]:
        out = ("&&", out, e)
    return out


@dataclass(frozen=True)
class GenProgram:
    """One generated program and the facts known about it by construction.

    `invariants` maps loop index to a list of (invariant, expected) pairs
    for verification; `expected` is the decision a correct checker gives.
    Programs of the inference workload carry no invariants: every one of
    them is correct, so the expected decision is `valid`.
    """
    name: str
    decls: tuple
    pre: object
    post: object
    body: tuple
    invariants: tuple = ()
    inputs: tuple = ("n",)

    def text(self) -> str:
        """The program as MiniC source."""
        lines = [f"//@ pre: {render(self.pre)}", f"//@ post: {render(self.post)}",
                 f"int {', '.join(self.decls)};"]
        lines += _render_stmts(self.body, "")
        return "\n".join(lines) + "\n"


def _render_stmts(stmts, indent):
    out = []
    for s in stmts:
        if s[0] == "=":
            out.append(f"{indent}{s[1]} = {render(s[2])};")
        elif s[0] == "if":
            out.append(f"{indent}if ({render(s[1])}) {{")
            out += _render_stmts(s[2], indent + "  ")
            out.append(f"{indent}}} else {{")
            out += _render_stmts(s[3], indent + "  ")
            out.append(f"{indent}}}")
        else:
            out.append(f"{indent}while ({render(s[1])}) {{")
            out += _render_stmts(s[2], indent + "  ")
            out.append(f"{indent}}}")
    return out


# --- bounded concrete execution ----------------------------------------------


class StepCapExceeded(Exception):
    pass


class Rejected(Exception):
    """An `assume` was false: the run is not an execution of the program."""


def run(prog: GenProgram, env: dict, step_cap: int = 20_000,
        nondet_values=(0, 1, -1, 2)) -> tuple[dict, dict, bool]:
    """Execute the model from `env`. Returns (final env, head states,
    every assert held); the head states are env snapshots per loop index,
    loops numbered in source order."""
    env = dict(env)
    heads: dict = {}
    steps = 0
    asserts_held = True
    loop_ids: dict = {}
    feed = itertools.cycle(nondet_values).__next__

    def number(stmts):
        for s in stmts:
            if s[0] == "while":
                loop_ids[id(s)] = len(loop_ids)
                number(s[2])
            elif s[0] == "if":
                number(s[2])
                number(s[3])

    def go(stmts):
        nonlocal steps, asserts_held
        for s in stmts:
            steps += 1
            if steps > step_cap:
                raise StepCapExceeded
            if s[0] == "=":
                env[s[1]] = evaluate(s[2], env, feed)
            elif s[0] == "if":
                go(s[2] if evaluate(s[1], env) else s[3])
            elif s[0] == "assume":
                if not evaluate(s[1], env):
                    raise Rejected
            elif s[0] == "assert":
                asserts_held = asserts_held and bool(evaluate(s[1], env))
            else:
                lid = loop_ids[id(s)]
                while True:
                    heads.setdefault(lid, []).append(dict(env))
                    steps += 1
                    if steps > step_cap:
                        raise StepCapExceeded
                    if not evaluate(s[1], env):
                        break
                    go(s[2])

    number(prog.body)
    go(prog.body)
    return env, heads, asserts_held


def bounded_runs(prog: GenProgram, values):
    """(final env, head states, asserts held) of every run from an input
    assignment drawn from `values` that meets the precondition. Variables
    other than the inputs start at 0; runs that an `assume` rejects or
    that exceed the step cap are skipped."""
    for combo in itertools.product(values, repeat=len(prog.inputs)):
        env = dict.fromkeys(prog.decls, 0)
        env.update(zip(prog.inputs, combo))
        if not evaluate(prog.pre, env):
            continue
        try:
            yield run(prog, env)
        except (Rejected, StepCapExceeded):
            continue


def concrete_verdict(prog: GenProgram, loop: int, inv, values=range(-2, 9)) -> str:
    """What bounded execution shows for invariant `inv` of loop `loop`:
    `init_fail` if it is false at some first visit of the loop head,
    `preserve_fail` if it holds at every first visit but fails at a later
    one, `valid` if it holds at every visit seen. `valid` is evidence
    only; the generator's construction is what makes it inductive."""
    later_fail = False
    for _, heads, _ in bounded_runs(prog, values):
        states = heads.get(loop, [])
        if states and not evaluate(inv, states[0]):
            return INIT_FAIL
        if any(not evaluate(inv, s) for s in states[1:]):
            later_fail = True
    return PRESERVE_FAIL if later_fail else VALID


def sound_under_execution(prog: GenProgram, invariants: dict, values=range(-2, 9)) -> bool:
    """Every bounded run keeps each invariant (loop index -> expression)
    at every visit of its loop head, holds every assert, and ends in a
    state that meets the postcondition."""
    for env, heads, asserts_held in bounded_runs(prog, values):
        if not asserts_held or not evaluate(prog.post, env):
            return False
        for lid, inv in invariants.items():
            if not all(evaluate(inv, s) for s in heads.get(lid, ())):
                return False
    return True


# --- branchy-verify -------------------------------------------------------------


def branchy_program(rng: random.Random, k: int, idx: int, kinds) -> GenProgram:
    """A loop whose body holds k sequential `if`s; the j-th compares
    accumulator x_j with the counter i and adds 0 or 1 to x_j on each
    arm, so 0 <= x_j <= i holds on all 2^k body paths. Each `if` owns its
    accumulator, and reads only variables that nothing earlier in the
    iteration writes. `kinds` gives (op, offset, arms) for the `if`s
    after the first.

    The first `if`, `x0 > i`, is false in the all-zero state; its then
    arm leaves x0 unchanged and its else arm adds 1. Invariants checked:
    the valid one, and its mutants.
    - preserve_fail: `x0 <= 0` in place of x0's upper bound. It holds
      initially; the first iteration takes the else arm and breaks it.
      Paths through the then arm keep it, so the check reaches the
      second half of the paths before it fails.
    - init_fail (every fourth program, so that a workload of six has an
      odd number of checks and its median is one check's time): `1 <= x_j`
      in place of `0 <= x_j`, for an x_j drawn by `rng`; every x_j
      starts at 0.
    """
    xs = [f"x{j}" for j in range(k)]
    conds = [(">", "x0", "i")] + [(op, x, ("+", "i", off))
                                  for x, (op, off, _) in zip(xs[1:], kinds)]
    arms = [(0, 1)] + [a for _, _, a in kinds]
    body = [("if", cond, (("=", x, ("+", x, a)),), (("=", x, ("+", x, b)),))
            for x, cond, (a, b) in zip(xs, conds, arms)]
    body.append(("=", "i", ("+", "i", 1)))

    def inv_with(swap=None):
        parts = [("<=", "i", "n")]
        for x in xs:
            parts += [("<=", 0, x), ("<=", x, "i")]
        if swap:
            parts[parts.index(swap[0])] = swap[1]
        return conj(*parts)

    checks = [(inv_with(), VALID),
              (inv_with((("<=", "x0", "i"), ("<=", "x0", 0))), PRESERVE_FAIL)]
    if idx % 4 == 3:
        x = rng.choice(xs)
        checks.append((inv_with((("<=", 0, x), ("<=", 1, x))), INIT_FAIL))
    post = conj(("==", "i", "n"), *(("<=", 0, x) for x in xs),
                *(("<=", x, "n") for x in xs))
    decls = ("i", "n", *xs)
    return GenProgram(
        name=f"branchy_k{k}_{idx}",
        decls=decls,
        pre=(">=", "n", 0),
        post=post,
        body=(("=", "i", 0), *(("=", x, 0) for x in xs),
              ("while", ("<", "i", "n"), tuple(body))),
        invariants=((0, tuple(checks)),),
    )


BRANCHY_KS = (4, 4, 5, 5, 5, 6)


def cycled(pool, start: int, count: int) -> list:
    """`count` items of `pool`, taken cyclically from `start`.

    The kinds of a program's `if`s are fixed by its position, not drawn
    from the seed: drawn kinds made pass_s vary by 30% and verdict_ms.p90
    by 20% from seed to seed, which would hide any smaller change."""
    return [pool[(start + j) % len(pool)] for j in range(count)]


# (comparison, offset, (then increment, else increment))
BRANCHY_KINDS = list(itertools.product(("<", "<=", ">", ">="), (0, 1, 2),
                                       ((1, 1), (0, 1), (1, 0))))


def branchy_workload(seed: int, ks=BRANCHY_KS) -> list[GenProgram]:
    rng = random.Random(f"branchy-verify:{seed}")
    return [branchy_program(rng, k, idx, cycled(BRANCHY_KINDS, 7 * idx, k - 1))
            for idx, k in enumerate(ks)]


# --- houdini-infer --------------------------------------------------------------


def houdini_program(name: str, v: int, nested: bool, conds) -> GenProgram:
    """A counting loop `i` up to `n` with v - 2 further variables: the
    accumulators, and the inner counter `j` when nested. `conds` holds
    one (op, rhs, in_then) per `if`; the `if`s take the accumulators in
    turn. The first `if` on accumulator x tests `x op rhs` and adds 1 to x
    in one arm; a further one tests `i op n` and resets x to 0. So
    0 <= x <= i <= n holds for every accumulator, and the postcondition
    `i == n && 0 <= x && x <= n` follows from a conjunction of the
    template clauses v ~ k and v ~ w. Houdini therefore settles the
    program without refinement.

    No `if` reads a variable written earlier in the same iteration:
    pathinv assumes every branch condition at the loop head (see
    selftest.test_branch_condition_after_write).
    """
    accs = ["x", "y", "z"][: v - 2 - (1 if nested else 0)]
    decls = ["i", "n"] + accs + (["j"] if nested else [])
    body = []
    for j, (op, rhs, in_then) in enumerate(conds):
        x = accs[j % len(accs)]
        if j < len(accs):
            cond, arm = (op, x, rhs), (("=", x, ("+", x, 1)),)
        else:
            cond, arm = (op, "i", "n"), (("=", x, 0),)
        body.append(("if", cond, arm, ()) if in_then else ("if", cond, (), arm))
    if nested:
        body.append(("=", "j", 0))
        body.append(("while", ("<", "j", "i"), (("=", "j", ("+", "j", 1)),)))
    body.append(("=", "i", ("+", "i", 1)))
    post = conj(("==", "i", "n"), *(("<=", 0, x) for x in accs),
                *(("<=", x, "n") for x in accs))
    return GenProgram(
        name=name,
        decls=tuple(decls),
        pre=(">=", "n", 0),
        post=post,
        body=(("=", "i", 0), *(("=", x, 0) for x in accs),
              ("while", ("<", "i", "n"), tuple(body))),
    )


# (v, branches, nested): each shape twice, and one more so that the
# number of programs is odd and their median is one program's time
HOUDINI_SHAPES = ((3, 1, False), (3, 2, False), (4, 1, False), (4, 2, False),
                  (4, 1, True), (4, 2, True)) * 2 + ((4, 2, True),)


HOUDINI_KINDS = list(itertools.product(("<", "<=", "!=", ">="), ("i", "n"), (True, False)))


def houdini_workload(shapes=HOUDINI_SHAPES) -> list[GenProgram]:
    return [houdini_program(f"houdini_v{v}_b{branches}{'_nest' if nested else ''}_{idx}",
                            v, nested, cycled(HOUDINI_KINDS, 5 * idx, branches))
            for idx, (v, branches, nested) in enumerate(shapes)]
