"""`pathinv-smt`: a small SMT-LIB 2 solver for quantifier-free LIA.

Reads a script on stdin, answers sat/unsat/unknown on stdout, and prints a
model in define-fun form on (get-model). Exists so the toolkit runs
hermetically when no system z3/cvc5 is installed; the subprocess protocol
is identical.

Decision procedure: NNF, lazy DNF enumeration, Omega test per conjunct.
In-process callers may pass a deadline (a `time.monotonic()` value); once
it passes, check-sat answers `timeout`. The command line sets none.
"""

from __future__ import annotations

import sys

from .omega import OmegaUnknown, solve_lia

MAX_DISJUNCTS = 20000


class SmtInputError(Exception):
    pass


# --- s-expression reader ---------------------------------------------------


def tokenize_sexpr(text: str) -> list[str]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            out.append(ch)
            i += 1
        elif ch == "|":
            j = text.index("|", i + 1)
            out.append(text[i:j + 1])
            i = j + 1
        elif ch == '"':
            j = text.index('"', i + 1)
            out.append(text[i:j + 1])
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def read_sexprs(tokens: list[str]):
    pos = 0

    def read():
        nonlocal pos
        if pos >= len(tokens):
            raise SmtInputError("unexpected end of input")
        t = tokens[pos]
        pos += 1
        if t == "(":
            items = []
            while True:
                if pos >= len(tokens):
                    raise SmtInputError("unexpected end of input")
                if tokens[pos] == ")":
                    break
                items.append(read())
            pos += 1
            return items
        if t == ")":
            raise SmtInputError("unbalanced parenthesis")
        return t

    exprs = []
    while pos < len(tokens):
        exprs.append(read())
    return exprs


# --- terms to linear forms ---------------------------------------------------

LinForm = tuple[dict[str, int], int]


def _combine(a: LinForm, b: LinForm, sign: int) -> LinForm:
    coeffs = dict(a[0])
    for v, k in b[0].items():
        coeffs[v] = coeffs.get(v, 0) + sign * k
    return {v: k for v, k in coeffs.items() if k != 0}, a[1] + sign * b[1]


def int_term(t, declared: set[str]) -> LinForm:
    if isinstance(t, str):
        if t.lstrip("-").isdigit():
            return {}, int(t)
        if t in declared:
            return {t: 1}, 0
        raise SmtInputError(f"unknown symbol {t}")
    if not t:
        raise SmtInputError("empty term")
    op, *args = t
    if op == "+":
        out = int_term(args[0], declared)
        for a in args[1:]:
            out = _combine(out, int_term(a, declared), 1)
        return out
    if op == "-":
        if len(args) == 1:
            c, k = int_term(args[0], declared)
            return {v: -x for v, x in c.items()}, -k
        out = int_term(args[0], declared)
        for a in args[1:]:
            out = _combine(out, int_term(a, declared), -1)
        return out
    if op == "*":
        forms = [int_term(a, declared) for a in args]
        consts = [f for f in forms if not f[0]]
        lins = [f for f in forms if f[0]]
        if len(lins) > 1:
            raise SmtInputError("nonlinear multiplication")
        factor = 1
        for _, k in consts:
            factor *= k
        if not lins:
            return {}, factor
        coeffs, k = lins[0]
        return {v: factor * c for v, c in coeffs.items() if factor * c != 0}, factor * k
    raise SmtInputError(f"unsupported integer operator {op}")


# --- boolean structure -------------------------------------------------------
# normalized form: ("and"|"or", [children]) | ("le", form) | ("eq", form)
#                 | ("ne", form) | True | False


def bool_term(t, declared: set[str], positive: bool = True):
    if isinstance(t, str):
        if t == "true":
            return positive
        if t == "false":
            return not positive
        raise SmtInputError(f"boolean symbol {t} unsupported")
    op, *args = t
    if op == "not":
        return bool_term(args[0], declared, not positive)
    if op in ("and", "or"):
        flip = {"and": "or", "or": "and"}
        kind = op if positive else flip[op]
        kids = [bool_term(a, declared, positive) for a in args]
        if kind == "and":
            if False in kids:
                return False
            kids = [k for k in kids if k is not True]
            return True if not kids else ("and", kids)
        if True in kids:
            return True
        kids = [k for k in kids if k is not False]
        return False if not kids else ("or", kids)
    if op == "=>":
        return bool_term(["or", ["not", args[0]], args[1]], declared, positive)
    if op in ("=", "<", "<=", ">", ">="):
        a = int_term(args[0], declared)
        b = int_term(args[1], declared)
        diff = _combine(a, b, -1)  # a - b
        coeffs, k = diff
        if op == "=":
            res = ("eq", diff)
        elif op == "<=":
            res = ("le", diff)
        elif op == "<":
            res = ("le", (coeffs, k + 1))
        elif op == ">=":
            res = ("le", ({v: -c for v, c in coeffs.items()}, -k))
        else:  # >
            res = ("le", ({v: -c for v, c in coeffs.items()}, -k + 1))
        if positive:
            return res
        kind, form = res
        coeffs, k = form
        if kind == "eq":
            return ("ne", form)
        # not (form <= 0)  <=>  -form + 1 <= 0
        return ("le", ({v: -c for v, c in coeffs.items()}, -k + 1))
    raise SmtInputError(f"unsupported boolean operator {op}")


def dnf(node):
    """Lazily yield conjuncts as (eqs, ineqs) pairs."""
    if node is True:
        yield [], []
        return
    if node is False:
        return
    kind = node[0]
    if kind == "eq":
        yield [node[1]], []
    elif kind == "le":
        yield [], [node[1]]
    elif kind == "ne":
        coeffs, k = node[1]
        yield [], [(coeffs, k + 1)]
        yield [], [({v: -c for v, c in coeffs.items()}, -k + 1)]
    elif kind == "or":
        for child in node[1]:
            yield from dnf(child)
    elif kind == "and":
        def product(children):
            if not children:
                yield [], []
                return
            for eqs1, ineqs1 in dnf(children[0]):
                for eqs2, ineqs2 in product(children[1:]):
                    yield eqs1 + eqs2, ineqs1 + ineqs2
        yield from product(node[1])
    else:
        raise SmtInputError(f"bad node {node!r}")


# --- driver ------------------------------------------------------------------


def check(assertions, declared: set[str], deadline: float | None = None):
    """Returns ('sat', model) | ('unsat', None) | ('unknown', None)
    | ('timeout', None).

    The deadline is checked as each disjunct's Omega test starts and at
    every step of its recursion.
    """
    node = ("and", [a for a in assertions]) if assertions else True
    count = 0
    try:
        for eqs, ineqs in dnf(node):
            count += 1
            if count > MAX_DISJUNCTS:
                return "unknown", None
            model = solve_lia(eqs, ineqs, deadline)
            if model is not None:
                full = {v: model.get(v, 0) for v in declared}
                return "sat", full
        return "unsat", None
    except OmegaUnknown:
        return "unknown", None
    except TimeoutError:
        return "timeout", None


def run_script(text: str, deadline: float | None = None) -> str:
    out = []
    declared: set[str] = set()
    assertions = []
    last = None  # result of the most recent check-sat
    for cmd in read_sexprs(tokenize_sexpr(text)):
        if not isinstance(cmd, list) or not cmd:
            raise SmtInputError(f"bad command {cmd!r}")
        head = cmd[0]
        if head in ("set-logic", "set-option", "set-info"):
            continue
        if head == "declare-const":
            if cmd[2] != "Int":
                raise SmtInputError("only Int sort supported")
            declared.add(cmd[1])
        elif head == "declare-fun":
            if cmd[2] != [] or cmd[3] != "Int":
                raise SmtInputError("only zero-ary Int functions supported")
            declared.add(cmd[1])
        elif head == "assert":
            assertions.append(bool_term(cmd[1], declared))
        elif head == "check-sat":
            status, model = check(assertions, declared, deadline)
            last = (status, model)
            out.append(status)
        elif head == "get-model":
            if last is None or last[0] != "sat":
                out.append('(error "no model available")')
            else:
                lines = ["(model"]
                for name in sorted(last[1]):
                    v = last[1][name]
                    lit = str(v) if v >= 0 else f"(- {-v})"
                    lines.append(f"  (define-fun {name} () Int {lit})")
                lines.append(")")
                out.append("\n".join(lines))
        elif head == "exit":
            break
        else:
            raise SmtInputError(f"unsupported command {head}")
    return "\n".join(out) + ("\n" if out else "")


def main() -> int:
    text = sys.stdin.read()
    try:
        sys.stdout.write(run_script(text))
        return 0
    except SmtInputError as exc:
        sys.stdout.write(f'(error "{exc}")\nunknown\n')
        return 1


if __name__ == "__main__":
    sys.exit(main())
