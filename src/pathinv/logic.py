"""Predicates, the strongest-postcondition transformer, and SMT-LIB output.

Predicates are quantifier-free boolean combinations of linear integer
atoms over program variables plus skolem names of the form ``x$k``
introduced by the forward transformer for overwritten values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import CompoundStatementError, TypeCheckError
from .frontend.ast_nodes import (
    Assert,
    Assign,
    Assume,
    Binary,
    Expr,
    Havoc,
    IntLit,
    Nondet,
    TRUE,
    Unary,
    Var,
    expr_vars,
    walk_exprs,
)
from .frontend.printer import expr_to_str

CMP_NEGATION = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
CMP_FLIP = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class Predicate:
    expr: Expr

    @cached_property
    def free_vars(self) -> frozenset[str]:
        # lazy: most candidate predicates are never encoded for the solver
        return expr_vars(self.expr)

    def __str__(self) -> str:
        return expr_to_str(self.expr)


P_TRUE = Predicate(TRUE)


def pred(e: Expr) -> Predicate:
    return Predicate(e)


def pred_and(*ps: Predicate) -> Predicate:
    exprs = []
    for p in ps:
        if p.expr != TRUE:
            exprs.append(p.expr)
    if not exprs:
        return P_TRUE
    out = exprs[0]
    for e in exprs[1:]:
        out = Binary("and", out, e)
    return Predicate(out)


def pred_or(a: Predicate, b: Predicate) -> Predicate:
    return Predicate(Binary("or", a.expr, b.expr))


def pred_not(p: Predicate) -> Predicate:
    return Predicate(negate_expr(p.expr))


def negate_expr(e: Expr) -> Expr:
    """Negate a boolean expression, pushing through connectives and
    rewriting negated comparisons to the flipped comparison."""
    if isinstance(e, Binary):
        if e.op in CMP_NEGATION:
            return Binary(CMP_NEGATION[e.op], e.left, e.right)
        if e.op == "and":
            return Binary("or", negate_expr(e.left), negate_expr(e.right))
        if e.op == "or":
            return Binary("and", negate_expr(e.left), negate_expr(e.right))
    if isinstance(e, Unary) and e.op == "not":
        return e.operand
    return Unary("not", e)


# --- substitution ---------------------------------------------------------


def subst_expr(e: Expr, mapping: dict[str, Expr]) -> Expr:
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Unary):
        return Unary(e.op, subst_expr(e.operand, mapping))
    if isinstance(e, Binary):
        return Binary(e.op, subst_expr(e.left, mapping), subst_expr(e.right, mapping))
    return e


def substitute(p: Predicate, var: str, e: Expr) -> Predicate:
    """Capture-free textual substitution p[e/var]."""
    for sub in walk_exprs(e):
        if isinstance(sub, Binary) and sub.op in ("and", "or", *CMP_NEGATION):
            raise TypeCheckError("substituted expression must be integer-typed", 0, 0)
    return Predicate(subst_expr(p.expr, {var: e}))


# --- strongest postcondition ----------------------------------------------


class FreshNames:
    """Query-local ``base$k`` name source (k is a per-query counter)."""

    def __init__(self):
        self.counter = 0

    def fresh(self, base: str) -> str:
        name = f"{base}${self.counter}"
        self.counter += 1
        return name


@dataclass
class SpResult:
    predicate: Predicate
    conjuncts: list[Expr]
    # symbol carrying each program variable's value *before* the segment
    pre_syms: dict[str, str]
    # symbols carrying havoc / nondet() input values, in execution order
    input_syms: list[str]


def _check_straight_line(stmts):
    for s in stmts:
        if not isinstance(s, (Assign, Assume, Assert, Havoc)):
            raise CompoundStatementError(
                f"strongest_post requires straight-line statements, got {type(s).__name__}")


def strongest_post_traced(pre: Predicate, stmts, fresh: FreshNames | None = None) -> SpResult:
    """Floyd-style forward transformer with pre-state bookkeeping.

    Assignments skolemize the overwritten value under a fresh name;
    assumes conjoin; havoc and nondet() leave the target constrained only
    by later code. Asserts are transparent (they are obligations, not
    assumptions).
    """
    _check_straight_line(stmts)
    fresh = fresh or FreshNames()
    conjuncts: list[Expr] = [] if pre.expr == TRUE else [pre.expr]
    pre_syms = {v: v for v in pre.free_vars}
    input_syms: list[str] = []

    def rename(old: str, new: str):
        mapping = {old: Var(new)}
        for i, c in enumerate(conjuncts):
            conjuncts[i] = subst_expr(c, mapping)
        for v, sym in pre_syms.items():
            if sym == old:
                pre_syms[v] = new

    def strip_nondet(e: Expr) -> Expr:
        if isinstance(e, Nondet):
            sym = fresh.fresh("nd")
            input_syms.append(sym)
            return Var(sym)
        if isinstance(e, Unary):
            return Unary(e.op, strip_nondet(e.operand))
        if isinstance(e, Binary):
            return Binary(e.op, strip_nondet(e.left), strip_nondet(e.right))
        return e

    for s in stmts:
        if isinstance(s, Assign):
            value = strip_nondet(s.value)
            old = fresh.fresh(s.target)
            pre_syms.setdefault(s.target, s.target)
            value = subst_expr(value, {s.target: Var(old)})
            rename(s.target, old)
            conjuncts.append(Binary("==", Var(s.target), value))
        elif isinstance(s, Havoc):
            old = fresh.fresh(s.target)
            pre_syms.setdefault(s.target, s.target)
            rename(s.target, old)
            input_syms.append(s.target)  # current name holds the drawn value
        elif isinstance(s, Assume):
            for v in expr_vars(s.cond):
                pre_syms.setdefault(v, v)
            conjuncts.append(s.cond)
        elif isinstance(s, Assert):
            pass

    expr: Expr = TRUE
    for c in conjuncts:
        expr = c if expr == TRUE else Binary("and", expr, c)
    return SpResult(Predicate(expr), conjuncts, pre_syms, input_syms)


def strongest_post(pre: Predicate, stmts) -> Predicate:
    return strongest_post_traced(pre, stmts).predicate


# --- clause canonicalization ----------------------------------------------


class NotLinearAtom(Exception):
    pass


def linear_terms(e: Expr) -> tuple[dict[str, int], int]:
    """Decompose an integer expression into (coeffs, constant)."""
    if isinstance(e, IntLit):
        return {}, e.value
    if isinstance(e, Var):
        return {e.name: 1}, 0
    if isinstance(e, Unary) and e.op == "neg":
        coeffs, c = linear_terms(e.operand)
        return {v: -k for v, k in coeffs.items()}, -c
    if isinstance(e, Binary) and e.op in ("+", "-"):
        lc, lk = linear_terms(e.left)
        rc, rk = linear_terms(e.right)
        sign = 1 if e.op == "+" else -1
        out = dict(lc)
        for v, k in rc.items():
            out[v] = out.get(v, 0) + sign * k
        return {v: k for v, k in out.items() if k != 0}, lk + sign * rk
    if isinstance(e, Binary) and e.op == "*":
        if isinstance(e.left, IntLit):
            lit, other = e.left.value, e.right
        elif isinstance(e.right, IntLit):
            lit, other = e.right.value, e.left
        else:
            raise NotLinearAtom(expr_to_str(e))
        coeffs, c = linear_terms(other)
        return {v: lit * k for v, k in coeffs.items() if lit * k != 0}, lit * c
    raise NotLinearAtom(expr_to_str(e))


def atom_key(e: Expr):
    """Canonical key for a connective-free comparison, or None if `e` is
    not a linear atom. Keys identify semantically equal atoms:
    lhs-rhs is normalized to ``sum <= c`` / ``sum == c`` / ``sum != c``
    with gcd reduction and a sign convention for (in)equalities."""
    if isinstance(e, Unary) and e.op == "not":
        return atom_key(negate_expr(e.operand))
    if not (isinstance(e, Binary) and e.op in CMP_NEGATION):
        return None
    try:
        lc, lk = linear_terms(e.left)
        rc, rk = linear_terms(e.right)
    except NotLinearAtom:
        return None
    coeffs = dict(lc)
    for v, k in rc.items():
        coeffs[v] = coeffs.get(v, 0) - k
    coeffs = {v: k for v, k in coeffs.items() if k != 0}
    const = rk - lk  # atom is: coeffs . x  <op>  const
    op = e.op
    if op == ">":
        coeffs, const, op = {v: -k for v, k in coeffs.items()}, -const, "<"
    elif op == ">=":
        coeffs, const, op = {v: -k for v, k in coeffs.items()}, -const, "<="
    if op == "<":
        op, const = "<=", const - 1
    if not coeffs:
        # ground atom: fold to truth value
        holds = {"<=": 0 <= const, "==": 0 == const, "!=": 0 != const}[op]
        return ("const", holds)
    g = math.gcd(*[abs(k) for k in coeffs.values()])
    if op == "<=":
        coeffs = {v: k // g for v, k in coeffs.items()}
        const = const // g  # floor division tightens the integer bound
    else:
        if const % g != 0:
            return ("const", op == "!=")
        coeffs = {v: k // g for v, k in coeffs.items()}
        const //= g
        first = min(coeffs)
        if coeffs[first] < 0:
            coeffs = {v: -k for v, k in coeffs.items()}
            const = -const
    return (op, tuple(sorted(coeffs.items())), const)


def is_linear_pred(e: Expr) -> bool:
    """True if every comparison atom in a boolean expression is linear."""
    if isinstance(e, Binary) and e.op in ("and", "or"):
        return is_linear_pred(e.left) and is_linear_pred(e.right)
    if isinstance(e, Unary) and e.op == "not":
        return is_linear_pred(e.operand)
    return atom_key(e) is not None


def boolean_atoms(e: Expr) -> list[Expr]:
    """Comparison atoms of a boolean combination, connectives stripped,
    negations folded into the comparison."""
    if isinstance(e, Binary) and e.op in ("and", "or"):
        return boolean_atoms(e.left) + boolean_atoms(e.right)
    if isinstance(e, Unary) and e.op == "not":
        return boolean_atoms(negate_expr(e.operand))
    return [e]


# --- SMT-LIB serialization --------------------------------------------------


@dataclass(frozen=True)
class SmtScript:
    logic_name: str
    declarations: tuple[str, ...]
    assertions: tuple[str, ...]
    commands: tuple[str, ...]

    def text(self) -> str:
        lines = [f"(set-logic {self.logic_name})"]
        lines += [f"(declare-const {name} Int)" for name in self.declarations]
        lines += [f"(assert {a})" for a in self.assertions]
        lines += list(self.commands)
        return "\n".join(lines) + "\n"


def expr_to_sexpr(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value) if e.value >= 0 else f"(- {-e.value})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        return f"(- {expr_to_sexpr(e.operand)})" if e.op == "neg" \
            else f"(not {expr_to_sexpr(e.operand)})"
    if isinstance(e, Binary):
        ls, rs = expr_to_sexpr(e.left), expr_to_sexpr(e.right)
        if e.op == "!=":
            return f"(not (= {ls} {rs}))"
        op = {"==": "=", "and": "and", "or": "or"}.get(e.op, e.op)
        return f"({op} {ls} {rs})"
    raise TypeCheckError(f"cannot serialize {e!r}", 0, 0)


def to_smt(assertions: list[Predicate], get_model: bool = True) -> SmtScript:
    decls = sorted(set().union(*[p.free_vars for p in assertions]) if assertions else set())
    commands = ["(check-sat)"]
    if get_model:
        commands.append("(get-model)")
    return SmtScript(
        logic_name="LIA",
        declarations=tuple(decls),
        assertions=tuple(expr_to_sexpr(p.expr) for p in assertions),
        commands=tuple(commands),
    )


@dataclass(frozen=True)
class ValidityQuery:
    """Refutation query for `antecedent implies consequent`.

    The script asserts antecedent AND NOT consequent: UNSAT means the
    implication is valid; a SAT model refutes it.
    """
    antecedent: Predicate
    consequent: Predicate
    script: SmtScript


def implies(a: Predicate, b: Predicate) -> ValidityQuery:
    return ValidityQuery(a, b, to_smt([a, pred_not(b)]))
