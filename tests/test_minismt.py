"""Bundled LIA solver, checked against brute-force enumeration."""

import itertools
import random
import sys

import pytest

from oracles import ReferenceOmegaSolver, reference_solve_lia
from pathinv.smt import omega
from pathinv.smt.minismt import (
    SmtInputError,
    bool_term,
    check,
    dnf,
    int_term,
    read_sexprs,
    run_script,
    tokenize_sexpr,
)
from pathinv.smt.omega import OmegaUnknown, solve_lia


# --- s-expressions -----------------------------------------------------------


def test_read_sexprs():
    exprs = read_sexprs(tokenize_sexpr("(a (b 1) -2) sym ; comment\n()"))
    assert exprs == [["a", ["b", "1"], "-2"], "sym", []]


def test_read_sexprs_unbalanced():
    with pytest.raises(SmtInputError):
        read_sexprs(tokenize_sexpr("(a b"))
    with pytest.raises(SmtInputError):
        read_sexprs(tokenize_sexpr(")"))


# --- term translation ----------------------------------------------------------


def test_int_term_linear_forms():
    declared = {"x", "y"}
    sx = read_sexprs(tokenize_sexpr("(+ (* 2 x) (- y) 3)"))[0]
    assert int_term(sx, declared) == ({"x": 2, "y": -1}, 3)


def test_int_term_rejects_nonlinear():
    declared = {"x", "y"}
    sx = read_sexprs(tokenize_sexpr("(* x y)"))[0]
    with pytest.raises(SmtInputError):
        int_term(sx, declared)


def test_bool_term_negation_pushdown():
    declared = {"x"}
    sx = read_sexprs(tokenize_sexpr("(not (and (< x 3) (> x 0)))"))[0]
    node = bool_term(sx, declared)
    assert node[0] == "or"
    # not(x < 3) -> x >= 3 -> -x + 3 <= 0
    assert ("le", ({"x": -1}, 3)) in node[1]


def test_dnf_ne_splits():
    declared = {"x"}
    sx = read_sexprs(tokenize_sexpr("(not (= x 0))"))[0]
    branches = list(dnf(bool_term(sx, declared)))
    assert len(branches) == 2


# --- omega core vs brute force -------------------------------------------------


def _brute_sat(eqs, ineqs, names, lo=-6, hi=6):
    for combo in itertools.product(range(lo, hi + 1), repeat=len(names)):
        env = dict(zip(names, combo))

        def val(form):
            coeffs, k = form
            return sum(c * env[v] for v, c in coeffs.items()) + k

        if all(val(f) == 0 for f in eqs) and all(val(f) <= 0 for f in ineqs):
            return env
    return None


def _check_model(model, eqs, ineqs):
    def val(form):
        coeffs, k = form
        return sum(c * model.get(v, 0) for v, c in coeffs.items()) + k

    assert all(val(f) == 0 for f in eqs)
    assert all(val(f) <= 0 for f in ineqs)


def _random_form(rng, names):
    coeffs = {}
    for v in names:
        if rng.random() < 0.7:
            c = rng.randint(-3, 3)
            if c:
                coeffs[v] = c
    return coeffs, rng.randint(-5, 5)


def test_solve_lia_fuzz_against_brute_force():
    rng = random.Random(20)
    names = ["x", "y", "z"]
    disagreements = []
    for trial in range(300):
        eqs = [_random_form(rng, names) for _ in range(rng.randint(0, 2))]
        ineqs = [_random_form(rng, names) for _ in range(rng.randint(0, 4))]
        model = solve_lia(list(eqs), list(ineqs))
        brute = _brute_sat(eqs, ineqs, names)
        if model is not None:
            _check_model(model, eqs, ineqs)  # sat answers carry real models
        elif brute is not None:
            disagreements.append((trial, eqs, ineqs, brute))
    assert not disagreements


def test_solve_lia_known_cases():
    # 2x == 1 over integers
    assert solve_lia([({"x": 2}, -1)], []) is None
    # x <= 0 and -x + 1 <= 0 (i.e. x >= 1)
    assert solve_lia([], [({"x": 1}, 0), ({"x": -1}, 1)]) is None
    # 3x + 5y == 1 has integer solutions
    m = solve_lia([({"x": 3, "y": 5}, -1)], [])
    assert m is not None and 3 * m["x"] + 5 * m["y"] == 1


def test_unbounded_directions():
    # x - y <= 0 alone: sat with arbitrarily large gap
    m = solve_lia([], [({"x": 1, "y": -1}, 0)])
    assert m is not None and m.get("x", 0) <= m.get("y", 0)


# --- omega core vs the reference implementation ---------------------------------


def _outcome(solve, eqs, ineqs):
    try:
        model = solve(eqs, ineqs)
    except OmegaUnknown:
        return "unknown", None
    return ("unsat", None) if model is None else ("sat", model)


def _random_system(rng):
    names = [f"v{i}" for i in range(rng.randint(2, 6))]

    def form():
        coeffs = {v: rng.randint(-4, 4) for v in names if rng.random() < 0.6}
        return {v: k for v, k in coeffs.items() if k}, rng.randint(-8, 8)

    eqs = [form() for _ in range(rng.choice((0, 0, 1, 2)))]
    ineqs = [form() for _ in range(rng.randint(1, 7))]
    return eqs, ineqs


@pytest.fixture
def shadow_slacks(monkeypatch):
    """The `slack` flag of every shadow the Omega test builds."""
    slacks = []
    shadow = omega._shadow

    def record(rest, lowers, uppers, slack):
        slacks.append(slack)
        return shadow(rest, lowers, uppers, slack)

    monkeypatch.setattr(omega, "_shadow", record)
    return slacks


def _cap_depth(monkeypatch, cls, depth):
    init = cls.__init__
    monkeypatch.setattr(cls, "__init__",
                        lambda self, max_depth=400, **kw: init(self, depth, **kw))


@pytest.mark.parametrize("max_depth", [400, 5])
def test_solve_lia_matches_reference(monkeypatch, shadow_slacks, max_depth):
    """Same status, same model and the same OmegaUnknown cases as the
    solver that solved every real shadow and re-normalised every
    constraint. Depth 5 makes the recursion budget run out on part of
    the systems."""
    _cap_depth(monkeypatch, omega._Solver, max_depth)
    _cap_depth(monkeypatch, ReferenceOmegaSolver, max_depth)
    splinters = []
    solve = omega._Solver.solve

    def record_solve(self, eqs, ineqs, depth=0):
        if eqs and sys._getframe(1).f_code.co_name == "_eliminate_inequality":
            splinters.append(depth)
        return solve(self, eqs, ineqs, depth)

    monkeypatch.setattr(omega._Solver, "solve", record_solve)
    rng = random.Random(4)
    seen = {"sat": 0, "unsat": 0, "unknown": 0}
    for trial in range(2500):
        eqs, ineqs = _random_system(rng)
        want = _outcome(reference_solve_lia, eqs, ineqs)
        assert _outcome(solve_lia, eqs, ineqs) == want, (trial, eqs, ineqs)
        seen[want[0]] += 1
    # dark shadows, grey regions (real shadows) and splinters all ran
    assert True in shadow_slacks and False in shadow_slacks and splinters
    assert seen["sat"] and seen["unsat"]
    assert bool(seen["unknown"]) == (max_depth < 400)


def test_exact_elimination_skips_the_real_shadow(monkeypatch, shadow_slacks):
    """x <= y, y <= z, z < x over the integers: every bound has coefficient
    1, so each elimination is exact and no real shadow is built."""
    ineqs = [({"x": 1, "y": -1}, 0), ({"y": 1, "z": -1}, 0), ({"z": 1, "x": -1}, 1)]
    calls = {"new": 0, "reference": 0}

    def counting(cls, key):
        solve = cls.solve

        def wrapper(self, *args, **kwargs):
            calls[key] += 1
            return solve(self, *args, **kwargs)
        monkeypatch.setattr(cls, "solve", wrapper)

    counting(omega._Solver, "new")
    counting(ReferenceOmegaSolver, "reference")
    assert solve_lia([], ineqs) is None
    assert reference_solve_lia([], ineqs) is None
    assert shadow_slacks and all(shadow_slacks)
    assert calls["new"] < calls["reference"]


# --- script driver -------------------------------------------------------------


def test_run_script_sat_with_model():
    out = run_script("""
        (set-logic LIA)
        (declare-const x Int)
        (declare-const y Int)
        (assert (and (< x y) (= y 3)))
        (check-sat)
        (get-model)
    """)
    assert out.splitlines()[0] == "sat"
    assert "(define-fun y () Int 3)" in out


def test_run_script_unsat():
    out = run_script("""
        (declare-const x Int)
        (assert (> x 0))
        (assert (< x 0))
        (check-sat)
    """)
    assert out.strip() == "unsat"


def test_run_script_model_before_checksat_errors():
    out = run_script("(declare-const x Int)\n(get-model)")
    assert "error" in out


def test_check_empty_assertions_sat():
    status, model = check([], {"x"})
    assert status == "sat" and model == {"x": 0}


def test_run_script_unsupported_command():
    with pytest.raises(SmtInputError):
        run_script("(push 1)")
