"""Integer linear arithmetic feasibility via the Omega test.

Constraints are linear forms over named integer variables:
``(coeffs, const)`` encodes ``sum(coeffs[v] * v) + const`` and is
interpreted as ``== 0`` (equalities) or ``<= 0`` (inequalities).

`solve_lia` decides satisfiability of a conjunction exactly and returns a
model on success. Equalities are eliminated by unimodular solving or
Pugh's mod trick; inequalities by Fourier-Motzkin with dark-shadow
reasoning and splintering for the inexact cases. An elimination whose
lower or upper bounds all have coefficient 1 is exact: its dark shadow is
its real shadow, so an infeasible dark shadow ends the branch.
Each constraint is put in lowest terms (divided by the gcd of its
coefficients) once, when it is made, and passed on unchanged after that.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

LinForm = tuple[dict[str, int], int]


class OmegaUnknown(Exception):
    """Recursion budget exceeded; result undecided."""


def _lowest_eq(form: LinForm) -> LinForm:
    """An equality divided by the gcd of its coefficients; ({}, 1), which
    is false, when the gcd does not divide the constant."""
    coeffs, const = form
    g = math.gcd(*coeffs.values())
    if g <= 1:  # 0: no variables
        return form
    if const % g != 0:
        return {}, 1
    return {v: k // g for v, k in coeffs.items()}, const // g


def _lowest_ineq(form: LinForm) -> LinForm:
    """An inequality divided by the gcd of its coefficients, its constant
    rounded up (tightened)."""
    coeffs, const = form
    g = math.gcd(*coeffs.values())
    if g <= 1:
        return form
    return {v: k // g for v, k in coeffs.items()}, -((-const) // g)


def _subst(forms: list[LinForm], var: str, repl: LinForm, lowest) -> list[LinForm]:
    """`forms` with `var` replaced by `repl`; each form that changes is put
    in lowest terms by `lowest`, the others are passed on as they are."""
    rc, rk = repl
    out = []
    for form in forms:
        coeffs, const = form
        a = coeffs.get(var)
        if a is not None:
            new = {v: k for v, k in coeffs.items() if v != var}
            for v, k in rc.items():
                new[v] = new.get(v, 0) + a * k
            form = lowest(({v: k for v, k in new.items() if k != 0}, const + a * rk))
        out.append(form)
    return out


def _eval(form: LinForm, model: dict[str, int]) -> int:
    coeffs, const = form
    return sum(k * model.setdefault(v, 0) for v, k in coeffs.items()) + const


def _smod(a: int, m: int) -> int:
    r = a % m
    return r - m if r > m // 2 else r


def _shadow(rest: list[LinForm], lowers, uppers, slack: bool) -> list[LinForm]:
    """`rest` plus one constraint per (lower, upper) bound pair of the
    eliminated variable: the dark shadow when `slack`, else the real one."""
    out = list(rest)
    for b, (lc, lk) in lowers:
        for a, (uc, uk) in uppers:
            coeffs = {v: a * k for v, k in lc.items()}
            for v, k in uc.items():
                coeffs[v] = coeffs.get(v, 0) + b * k
            const = a * lk + b * uk
            if slack:
                const += (a - 1) * (b - 1)
            out.append(_lowest_ineq(({v: k for v, k in coeffs.items() if k != 0}, const)))
    return out


class _Solver:
    def __init__(self, max_depth: int = 400, deadline: float | None = None):
        self.max_depth = max_depth
        self.deadline = deadline  # time.monotonic() value, or None
        self.fresh = 0

    def solve(self, eqs: list[LinForm], ineqs: list[LinForm], depth: int = 0):
        """Every form must be in lowest terms (`_lowest_eq`, `_lowest_ineq`)."""
        if depth > self.max_depth:
            raise OmegaUnknown
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeoutError
        eqs2, ineqs2 = [], []
        for form in eqs:
            if form[0]:
                eqs2.append(form)
            elif form[1] != 0:
                return None
        for form in ineqs:
            if form[0]:
                ineqs2.append(form)
            elif form[1] > 0:
                return None
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
            rest_eqs = _subst(eqs[1:], unit, repl, _lowest_eq)
            rest_ineqs = _subst(ineqs, unit, repl, _lowest_ineq)
            model = self.solve(rest_eqs, rest_ineqs, depth + 1)
            if model is None:
                return None
            model[unit] = _eval(repl, model)
            return model
        # no unit coefficient: Pugh's mod-based elimination
        k = min(coeffs, key=lambda v: abs(coeffs[v]))
        if coeffs[k] < 0:
            coeffs = {v: -c for v, c in coeffs.items()}
            const = -const
        m = coeffs[k] + 1
        sigma = f"_omega{self.fresh}"
        self.fresh += 1
        repl_coeffs = {v: _smod(c, m) for v, c in coeffs.items() if v != k}
        repl_coeffs = {v: c for v, c in repl_coeffs.items() if c != 0}
        repl_coeffs[sigma] = m
        repl = (repl_coeffs, _smod(const, m))
        new_eqs = _subst(eqs, k, repl, _lowest_eq)
        new_ineqs = _subst(ineqs, k, repl, _lowest_ineq)
        model = self.solve(new_eqs, new_ineqs, depth + 1)
        if model is None:
            return None
        model[k] = _eval(repl, model)
        model.pop(sigma, None)
        return model

    # --- inequalities ---

    def _eliminate_inequality(self, eqs, ineqs, depth):
        # eliminate the first variable, in name order, with the fewest
        # (lower, upper) bound pairs
        bounds = {}
        for coeffs, _ in ineqs:
            for v, k in coeffs.items():
                lo, hi = bounds.get(v, (0, 0))
                bounds[v] = (lo + (k < 0), hi + (k > 0))
        x = min(sorted(bounds), key=lambda v: bounds[v][0] * bounds[v][1])
        lowers, uppers, rest = [], [], []
        for form in ineqs:
            coeffs, const = form
            a = coeffs.get(x, 0)
            if a == 0:
                rest.append(form)
                continue
            r = ({v: k for v, k in coeffs.items() if v != x}, const)
            if a < 0:
                lowers.append((-a, r))   # (-a) * x >= r
            else:
                uppers.append((a, r))    # a * x <= -r

        if not lowers or not uppers:
            model = self.solve([], rest, depth + 1)
            if model is None:
                return None
            return self._assign_bounded(model, x, lowers, uppers)

        model = self.solve([], _shadow(rest, lowers, uppers, slack=True), depth + 1)
        if model is not None:
            return self._assign_bounded(model, x, lowers, uppers)
        if all(a == 1 for a, _ in uppers) or all(b == 1 for b, _ in lowers):
            return None  # every slack (a-1)(b-1) is 0: the real shadow was just refuted
        if self.solve([], _shadow(rest, lowers, uppers, slack=False), depth + 1) is None:
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
                eq = _lowest_eq(({v: k for v, k in coeffs.items() if k != 0}, -lk - i))
                model = self.solve([eq], ineqs, depth + 1)
                if model is not None:
                    return model
        return None

    def _assign_bounded(self, model, x, lowers, uppers):
        lo = hi = None
        for b, r in lowers:
            val = math.ceil(Fraction(_eval(r, model), b))
            lo = val if lo is None else max(lo, val)
        for a, r in uppers:
            val = math.floor(Fraction(-_eval(r, model), a))
            hi = val if hi is None else min(hi, val)
        if lo is not None:
            model[x] = lo
        elif hi is not None:
            model[x] = hi
        else:
            model[x] = 0
        return model


def solve_lia(eqs: list[LinForm], ineqs: list[LinForm],
              deadline: float | None = None) -> dict[str, int] | None:
    """Decide a conjunction of integer linear constraints.

    Returns a satisfying assignment (variables absent from any constraint
    are omitted) or None when unsatisfiable. Raises OmegaUnknown if the
    recursion budget is exceeded, and TimeoutError once `time.monotonic()`
    passes `deadline`.
    """
    return _Solver(deadline=deadline).solve([_lowest_eq(f) for f in eqs],
                                            [_lowest_ineq(f) for f in ineqs])
