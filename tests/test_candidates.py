"""Candidate generation: clause stores, the combinor, ce pruning, LLM parsing."""

import http.server
import itertools
import json
import random
import threading

import pytest

from pathinv.errors import LlmFormatError, LlmTransportError
from pathinv.frontend.ast_nodes import Assign
from pathinv.frontend.parser import parse_expr_text
from pathinv.frontend.printer import expr_to_str
from pathinv.hoare import (
    BodyPath,
    Counterexample,
    HoareProblem,
    Obligation,
    build_problem,
    check_invariant,
)
from pathinv import candidates
from pathinv.candidates import (
    Candidate,
    CeSet,
    ExprStore,
    GeneratorBudget,
    LlmConfig,
    PromptContext,
    combine,
    filter_by_ces,
    infer_invariant,
    llm_generate,
    parse_clause_lines,
    prompt_key,
    render_prompt,
    sample_head_states,
    seed_clauses,
)
from pathinv.frontend.ast_nodes import Binary, While, walk_stmts
from pathinv.interp import eval_pred
from pathinv.logic import P_TRUE, implies, pred

from conftest import CORPUS, corpus_files, llm_corpus_files, load
from oracles import random_atom, reference_combine, reference_filter


def P(text):
    return pred(parse_expr_text(text))


def count_up_problem():
    p, _ = load(CORPUS / "count_up.mc")
    return p, build_problem(p, 0, {})


def small_hp():
    """Hand-built count_up-shaped problem with known atoms and constants."""
    return HoareProblem(
        pre=P("x == 0 && n >= 0"),
        guard=P("x < n"),
        body_paths=(BodyPath((), (Assign("x", parse_expr_text("x + 1")),)),),
        suffix=(),
        obligations=(Obligation(0, P("x == n")),),
        loop_id=0,
        var_names=("x", "n"),
    )


# --- stores -------------------------------------------------------------------


def test_store_dedups_by_canonical_key():
    s = ExprStore()
    assert s.add(parse_expr_text("x < 5"), "a")
    assert not s.add(parse_expr_text("x <= 4"), "b")  # same atom
    assert not s.add(parse_expr_text("5 > x"), "c")
    assert s.add(parse_expr_text("x <= 5"), "d")
    assert len(s) == 2


def test_store_rejects_ground_atoms():
    s = ExprStore()
    assert not s.add(parse_expr_text("3 < 5"), "a")
    assert not s.add(parse_expr_text("x < x"), "a")  # folds to ground
    assert len(s) == 0


def test_ceset_dedups_by_identity():
    cs = CeSet()
    assert cs.add(Counterexample("init", {"x": 0}))
    assert not cs.add(Counterexample("init", {"x": 0}, model={"irrelevant": 1}))
    assert cs.add(Counterexample("term", {"x": 0}))
    assert len(cs) == 2


def test_budget_validation():
    GeneratorBudget(max_rounds=0)  # allowed: disables generation entirely
    with pytest.raises(ValueError):
        GeneratorBudget(max_combination_size=0)
    with pytest.raises(ValueError):
        GeneratorBudget(max_rounds=-1)


# --- seeding ---------------------------------------------------------------------


def test_seed_clauses_contents_and_size_bound():
    store = seed_clauses(small_hp())
    texts = {expr_to_str(c.expr) for c in store}
    # harvested program atoms survive
    assert {"x == 0", "n >= 0", "x < n", "x == n"} <= texts
    # template instances over {x, n} x {-1, 0, 1}
    assert {"x <= 1", "x <= n", "x + n >= -1", "x - n <= 1"} <= texts
    # no skolems, no ground atoms, vars in scope
    for c in store:
        assert "$" not in expr_to_str(c.expr)
    # upper bound: 5 ops, v=2 vars, c=3 constants:
    # v*c singles + C(v,2)*(1 + 2c) pair forms, times 5 ops
    assert len(store) <= 5 * (2 * 3 + 1 * (1 + 2 * 3))


def test_seed_clauses_harvests_branch_guards():
    hp = HoareProblem(
        pre=P("x == 0"), guard=P("x < 9"),
        body_paths=(BodyPath((parse_expr_text("x + y < 7"),), ()),),
        suffix=(), obligations=(), loop_id=0, var_names=("x", "y"))
    texts = {expr_to_str(c.expr) for c in seed_clauses(hp)}
    assert "x + y < 7" in texts


# --- ce filtering ----------------------------------------------------------------


def cand(text):
    return Candidate(P(text), ())


def test_filter_init_ce():
    ces = CeSet()
    ces.add(Counterexample("init", {"x": 0, "n": 0}))
    assert not filter_by_ces(cand("x > 0"), ces)   # false at init state
    assert filter_by_ces(cand("x <= n"), ces)


def test_filter_preserve_ce():
    ces = CeSet()
    ces.add(Counterexample("preserve", {"x": 1, "n": 3}, {"x": 2, "n": 3}))
    assert not filter_by_ces(cand("x <= 1"), ces)  # held, then broke
    assert filter_by_ces(cand("x <= n"), ces)      # held on both sides
    assert filter_by_ces(cand("x == 0"), ces)      # never held: not refuted


def test_filter_term_ce():
    ces = CeSet()
    ces.add(Counterexample("term", {"x": 5, "n": 5}))
    assert not filter_by_ces(cand("x == n"), ces)  # true at the bad exit
    assert filter_by_ces(cand("x < n"), ces)


# --- the combinor ------------------------------------------------------------------


def store_of(*texts):
    s = ExprStore()
    for t in texts:
        assert s.add(parse_expr_text(t), "template")
    return s


def test_combine_size_lexicographic_order():
    s = store_of("x > 0", "x < 9", "x != 5")
    out = [c for c in combine(s, GeneratorBudget(), CeSet())]
    sizes = [len(c.clauses_used) for c in out if "||" not in str(c.formula)]
    conj_count = sum(1 for c in out if "||" not in str(c.formula))
    # all 3 singles, 3 pairs, 1 triple, in that order
    assert sizes[:conj_count] == [1, 1, 1, 2, 2, 2, 3]
    assert str(out[0].formula) == "x > 0"
    # disjunctions come last and have two sides
    assert all("||" in str(c.formula) for c in out[conj_count:])
    assert len(out[conj_count:]) > 0


def test_combine_respects_max_combination_size():
    s = store_of("x > 0", "x < 9", "x != 5")
    out = list(combine(s, GeneratorBudget(max_combination_size=1), CeSet()))
    assert all(len(c.clauses_used) <= 2 for c in out)  # singles + 1|1 disjunctions
    assert all(len(c.clauses_used) == 1 for c in out if "||" not in str(c.formula))


def test_combine_skips_ce_rejected_candidates():
    s = store_of("x > 0", "x <= 9")
    ces = CeSet()
    ces.add(Counterexample("init", {"x": 0}))
    texts = [str(c.formula) for c in combine(s, GeneratorBudget(), ces)]
    # conjunctions containing the refuted clause are pruned; a disjunction
    # true at the ce state may still carry it
    assert all("x > 0" not in t for t in texts if "||" not in t)
    assert "x <= 9" in texts


def test_combine_head_samples_gate_disjunctions():
    # samples x=0 and x=10: each side is partial; together they must cover both
    s = store_of("x <= 3", "x >= 7", "x >= 100")
    samples = ({"x": 0}, {"x": 10})
    out = list(combine(s, GeneratorBudget(), CeSet(), head_samples=samples))
    disj = [str(c.formula) for c in out if "||" in str(c.formula)]
    assert "x <= 3 || x >= 7" in disj
    # x >= 100 is false on every sample: excluded from the pool
    assert all("100" not in t for t in disj)
    # conjunctions must hold on every sample outright
    assert all("||" in t or eval_pred(parse_expr_text(t), {"x": 0})
               for t in (str(c.formula) for c in out))


def test_combine_no_overlapping_sides():
    s = store_of("x > 0", "x < 9", "x != 5")
    for c in combine(s, GeneratorBudget(), CeSet()):
        if "||" in str(c.formula):
            assert len(set(c.clauses_used)) == len(c.clauses_used)


def corpus_loop_problems():
    """(name, problem) for every loop of the corpus, with the loop's real
    head samples; inner loops are summarized as `true`."""
    out = []
    for path in corpus_files() + llm_corpus_files():
        p, _ = load(path)
        lids = [s.loop_id for s in walk_stmts(p.body) if isinstance(s, While)]
        for lid in lids:
            hp = build_problem(p, lid, dict.fromkeys(lids, P_TRUE),
                               head_samples=sample_head_states(p, lid))
            out.append((f"{path.stem}:{lid}", hp))
    return out


def random_state(rng, names):
    return {v: rng.randint(-4, 4) for v in names}


def random_ces(rng, names, n=3):
    """n counterexamples of each kind at random states."""
    ces = CeSet()
    for _ in range(n):
        ces.add(Counterexample("init", random_state(rng, names)))
        ces.add(Counterexample("preserve", random_state(rng, names),
                               random_state(rng, names)))
        ces.add(Counterexample("term", random_state(rng, names)))
    return ces


def stream(gen):
    return [(str(c.formula), c.clauses_used) for c in gen]


@pytest.mark.parametrize("size", [1, 2, 3])
def test_combine_matches_reference_stream(monkeypatch, size):
    """The mask-screened stream is the formula-by-formula stream, item for
    item. The small caps cut most streams inside the conjunctions; at size
    2 they cut count_up's inside the disjunctions by the scan cap and
    frame_simple's (no head samples) by the enumeration cap, and at size 1
    the streams run to their end."""
    monkeypatch.setattr(candidates, "MAX_ENUMERATED", 3_000)
    monkeypatch.setattr(candidates, "MAX_SCANNED", 30_000)
    budget = GeneratorBudget(max_combination_size=size)
    rng = random.Random(size)
    for name, hp in corpus_loop_problems():
        store = seed_clauses(hp)
        for ces in (CeSet(), random_ces(rng, hp.var_names)):
            got = stream(combine(store, budget, ces, hp.head_samples))
            want = stream(reference_combine(store, budget, ces, hp.head_samples))
            assert got == want, (name, len(ces))


def test_combine_matches_reference_stream_uncapped():
    """With the shipped caps, count_up's stream runs to its natural end
    through every conjunction and disjunction shape."""
    p, _ = load(CORPUS / "count_up.mc")
    hp = build_problem(p, 0, {}, head_samples=sample_head_states(p, 0))
    store = seed_clauses(hp)
    for ces in (CeSet(), random_ces(random.Random(7), hp.var_names, n=1)):
        got = stream(combine(store, GeneratorBudget(), ces, hp.head_samples))
        want = stream(reference_combine(store, GeneratorBudget(), ces,
                                        hp.head_samples))
        assert got == want and any("||" in text for text, _ in got)


def dnf(groups):
    sides = []
    for g in groups:
        e = g[0].expr
        for c in g[1:]:
            e = Binary("and", e, c.expr)
        sides.append(e)
    out = sides[0]
    for e in sides[1:]:
        out = Binary("or", out, e)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_filter_masks_agree_with_eval_pred(seed):
    rng = random.Random(seed)
    names = ("x", "y", "z")
    store = ExprStore()
    while len(store) < 12:
        store.add(random_atom(rng, names), "template")
    clauses = list(store)
    groupings = [tuple(tuple(rng.sample(clauses, rng.randint(1, 3)))
                       for _ in range(rng.randint(1, 2)))
                 for _ in range(150)]
    late = []   # verdicts given after the clause masks were extended
    for _ in range(4):
        ces = CeSet()
        for kind in rng.sample(["init", "preserve", "term"], 3):
            # one counterexample at a time, arriving after the clause masks
            # of the earlier ones were computed: the masks must be extended
            ces.add(Counterexample(kind, random_state(rng, names),
                                   random_state(rng, names) if kind == "preserve" else None))
            for groups in groupings:
                formula = dnf(groups)
                want = reference_filter(formula, ces)
                used = tuple(c for g in groups for c in g)
                assert filter_by_ces(Candidate(pred(formula), used, groups=groups),
                                     ces) == want, (len(ces), str(formula))
                # fallback path: no grouping, evaluated on the formula
                assert filter_by_ces(Candidate(pred(formula), used), ces) == want
                if len(ces) > 1:
                    late.append(want)
    assert True in late and False in late


@pytest.mark.parametrize("size", [1, 2])
def test_combine_caps_cut_at_the_same_combination(monkeypatch, size):
    """Every value of each cap, on a store small enough to sweep: the cut
    falls on the same combination as in the formula-by-formula stream."""
    s = store_of("x <= 3", "x <= 5", "x >= 7", "x >= 3", "x != 8", "x <= 9",
                 "x >= 0", "x == 12")
    samples = ({"x": 0}, {"x": 4}, {"x": 8}, {"x": 12})
    budget = GeneratorBudget(max_combination_size=size)
    uncut = list(reference_combine(s, budget, CeSet(), samples))
    assert sum("||" in str(c.formula) for c in uncut) >= 9
    # 7 partial clauses: 21 + 7 * 21 + 210 pairs of sides to scan
    for enumerated, scanned in [(e, 5_000_000) for e in range(150)] + \
            [(200_000, k) for k in range(380)]:
        monkeypatch.setattr(candidates, "MAX_ENUMERATED", enumerated)
        monkeypatch.setattr(candidates, "MAX_SCANNED", scanned)
        got = stream(combine(s, budget, CeSet(), samples))
        assert got == stream(reference_combine(s, budget, CeSet(), samples)), \
            (enumerated, scanned)


# --- LLM plumbing --------------------------------------------------------------------


def test_render_prompt_fills_placeholders():
    ctx = PromptContext(program="PROGRAM-TEXT", pre="n >= 0", guard="x < n",
                        post="x == n")
    ces = CeSet()
    ces.add(Counterexample("preserve", {"x": 1}, {"x": 2}))
    prompt = render_prompt(ctx, ces)
    assert "PROGRAM-TEXT" in prompt and "x < n" in prompt
    assert "preserve failure at state {x=1} leading to {x=2}" in prompt
    assert "{program}" not in prompt and "{ceset}" not in prompt


def test_prompt_key_deterministic():
    assert prompt_key("abc") == prompt_key("abc")
    assert prompt_key("abc") != prompt_key("abd")
    assert len(prompt_key("abc")) == 16


def test_parse_clause_lines_contract():
    response = """Here are my suggestions:
```
x <= n
// a comment
y == 2 * x;
x * y > 0
z < 1
x <= n || x > 0
banana banana
```
trailing prose"""
    clauses = parse_clause_lines(response, ("x", "y", "n"))
    assert [expr_to_str(e) for e in clauses] == ["x <= n", "y == 2 * x"]


def test_llm_generate_from_mock_transcript(tmp_path):
    ctx = PromptContext(program="p", pre="true", guard="x < n", post="x == n")
    prompt = render_prompt(ctx, CeSet())
    path = tmp_path / "t.json"
    path.write_text(json.dumps({prompt_key(prompt): "```\nx <= n\n```"}))
    cfg = LlmConfig(endpoint=f"mock:{path}")
    clauses = llm_generate(ctx, CeSet(), cfg, ("x", "n"))
    assert [expr_to_str(e) for e in clauses] == ["x <= n"]


def test_llm_generate_missing_transcript(tmp_path):
    path = tmp_path / "t.json"
    path.write_text("{}")
    ctx = PromptContext(program="p", pre="true", guard="g < 1", post="")
    with pytest.raises(LlmTransportError):
        llm_generate(ctx, CeSet(), LlmConfig(endpoint=f"mock:{path}"), ("g",))


def test_llm_generate_unusable_response_raises(tmp_path):
    ctx = PromptContext(program="p", pre="true", guard="x < n", post="x == n")
    prompt = render_prompt(ctx, CeSet())
    path = tmp_path / "t.json"
    path.write_text(json.dumps({prompt_key(prompt): "no clauses here"}))
    with pytest.raises(LlmFormatError):
        llm_generate(ctx, CeSet(), LlmConfig(endpoint=f"mock:{path}"), ("x", "n"))


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    """A chat-completions endpoint: /ok answers, /fail is an HTTP 500,
    /garbled is not JSON. Each request body is kept for the test."""
    requests = []

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        type(self).requests.append((self.path, dict(self.headers), json.loads(body)))
        if self.path == "/fail":
            self.send_error(500)
            return
        reply = (b"not json {" if self.path == "/garbled" else json.dumps(
            {"choices": [{"message": {"content": "```\nx <= n\n```"}}]}).encode())
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server(monkeypatch):
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    _ChatHandler.requests = []
    server = http.server.HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def test_llm_generate_over_http(chat_server, monkeypatch):
    monkeypatch.setenv("PATHINV_LLM_KEY", "k-123")
    ctx = PromptContext(program="p", pre="true", guard="x < n", post="x == n")
    cfg = LlmConfig(endpoint=f"{chat_server}/ok", model="m1", max_tokens=64)
    clauses = llm_generate(ctx, CeSet(), cfg, ("x", "n"))
    assert [expr_to_str(e) for e in clauses] == ["x <= n"]
    [(path, headers, body)] = _ChatHandler.requests
    assert headers["Authorization"] == "Bearer k-123"
    assert body["model"] == "m1" and body["max_tokens"] == 64
    assert body["messages"] == [{"role": "user",
                                 "content": render_prompt(ctx, CeSet())}]


@pytest.mark.parametrize("path", ["/fail", "/garbled"])
def test_llm_generate_http_errors_are_transport_errors(chat_server, path):
    ctx = PromptContext(program="p", pre="true", guard="x < n", post="x == n")
    with pytest.raises(LlmTransportError):
        llm_generate(ctx, CeSet(), LlmConfig(endpoint=chat_server + path), ("x", "n"))
    assert len(_ChatHandler.requests) == 1


# --- inference loop -------------------------------------------------------------------


def test_infer_combinor_finds_count_up(solver):
    p, hp = count_up_problem()
    res = infer_invariant(hp, "combinor", GeneratorBudget(), solver)
    assert res.found and res.verdict.is_valid
    assert res.rounds == 1 and res.query_count > 0
    # the found invariant verifies independently
    assert check_invariant(hp, res.candidate.formula, solver).is_valid


def test_infer_zero_rounds_exhausts_without_queries(solver):
    p, hp = count_up_problem()
    before = solver.query_count
    res = infer_invariant(hp, "combinor", GeneratorBudget(max_rounds=0), solver)
    assert res.status == "exhausted" and solver.query_count == before


def test_infer_exhausted_reports_failures(solver):
    p, hp = count_up_problem()
    res = infer_invariant(hp, "combinor",
                          GeneratorBudget(max_candidates=3), solver)
    assert res.status == "exhausted"
    assert res.candidates_checked == 3
    assert res.best_failures and len(res.ce_set) > 0


def test_infer_ce_filter_toggle_same_verdict(solver):
    p, hp = count_up_problem()
    on = infer_invariant(hp, "combinor", GeneratorBudget(), solver,
                         use_ce_filter=True)
    off = infer_invariant(hp, "combinor", GeneratorBudget(), solver,
                          use_ce_filter=False)
    assert on.found == off.found
    assert str(on.candidate.formula) == str(off.candidate.formula)
    # the filter only ever saves work
    assert on.candidates_checked <= off.candidates_checked


def test_infer_trivially_post_returns_inductive_conjunction(solver):
    p, _ = load(CORPUS / "count_up.mc")
    hp = build_problem(p, 0, {}, with_obligations=False)
    res = infer_invariant(hp, "combinor", GeneratorBudget(), solver)
    assert res.found
    inv = res.candidate.formula
    # inductive and strong enough to imply the gold invariant
    assert check_invariant(hp, inv, solver).is_valid
    assert solver.check(implies(inv, pred(p.gold_invariant(0))).script).is_unsat
    # redundancy pruning: no clause entailed by its siblings
    clauses = res.candidate.clauses_used
    for c in clauses:
        rest = [d for d in clauses if d is not c]
        if rest:
            from pathinv.logic import pred_and
            conj = pred_and(*(pred(d.expr) for d in rest))
            assert not solver.check(implies(conj, pred(c.expr)).script).is_unsat


def test_infer_rejects_bad_mode(solver):
    p, hp = count_up_problem()
    with pytest.raises(ValueError):
        infer_invariant(hp, "oracle", GeneratorBudget(), solver)
    with pytest.raises(ValueError):
        infer_invariant(hp, "llm", GeneratorBudget(), solver)  # no LlmConfig


# --- head-state sampling ----------------------------------------------------------------


def test_sample_head_states_reachable_and_deduped():
    p, _ = load(CORPUS / "count_up.mc")
    states = sample_head_states(p, 0)
    assert states
    keys = {tuple(sorted(s.items())) for s in states}
    assert len(keys) == len(states)
    for s in states:
        # precondition-respecting runs only; x counts up from 0 to n
        assert s["n"] >= 0 and 0 <= s["x"] <= s["n"]


def test_sample_head_states_prune_candidates():
    p, _ = load(CORPUS / "count_up.mc")
    states = sample_head_states(p, 0)
    assert all(eval_pred(parse_expr_text("x <= n"), s) for s in states)
    assert any(not eval_pred(parse_expr_text("x == 0"), s) for s in states)
