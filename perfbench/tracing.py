"""Per-layer tracing of pathinv from outside the package.

The tracer rebinds public functions on their modules to timing wrappers.
`from .x import y` copies a binding into each importer, so every module
that holds the function gets the wrapper (summarize.build_problem,
candidates.check_invariant, hoare.strongest_post_traced, ...). Nothing in
`src/pathinv` records anything.

Each call becomes a span (id, parent id, operation id, name, start, end)
kept in memory. A span's self time is its duration minus the time its
child spans cover; self times are summed per layer, the layer being the
span name's prefix, which is the module name.
"""

from __future__ import annotations

import functools
import hashlib
from collections import Counter, defaultdict
from time import perf_counter



def percentile(xs, q: int) -> float:
    """Nearest-rank percentile: always one of the samples."""
    return sorted(xs)[max(0, -(-q * len(xs) // 100) - 1)]


# span name -> (attribute, modules that hold a binding of it)
SPANS = {
    "frontend.parse": [("parse_program", ("frontend.parser", "frontend")),
                       ("parse_expr_text", ("frontend.parser", "frontend", "candidates"))],
    "cfg.build": [("build_cfg", ("cfg", "summarize"))],
    "paths.find": [("find_all_paths", ("paths", "summarize"))],
    "hoare.build_problem": [("build_problem", ("hoare", "summarize"))],
    "hoare.check": [("check_invariant", ("hoare", "summarize", "candidates"))],
    "hoare.check_init": [("check_initialization", ("hoare", "candidates"))],
    "hoare.check_preserve": [("check_preservation", ("hoare", "candidates"))],
    "hoare.check_exit": [("check_exit", ("hoare",))],
    "logic.sp": [("strongest_post_traced", ("logic", "hoare", "summarize"))],
    "candidates.infer": [("infer_invariant", ("candidates", "summarize"))],
    "candidates.seed": [("seed_clauses", ("candidates",))],
    "candidates.sample_heads": [("sample_head_states", ("candidates", "summarize"))],
    "candidates.houdini": [("houdini_conjunction", ("candidates",))],
    "candidates.llm": [("llm_generate", ("candidates",))],
    "smt.solve_lia": [("solve_lia", ("smt.minismt",))],
    "interp.replay": [("exec_straight_line", ("interp", "hoare"))],
    "interp.run_program": [("run_program", ("interp",))],
    "summarize.hierarch": [("hierarch_summarize", ("summarize",))],
    "summarize.final_check": [("final_check", ("summarize",))],
}

LAYERS = ("bench", "frontend", "cfg", "paths", "hoare", "logic", "candidates", "smt",
          "interp", "summarize")

# reported metric -> span name whose total time it is
TIME_METRICS = {
    "frontend.parse_ms": "frontend.parse",
    "cfg.build_ms": "cfg.build",
    "paths.find_ms": "paths.find",
    "hoare.build_problem_ms": "hoare.build_problem",
    "hoare.check_ms": "hoare.check",
    "logic.sp_ms": "logic.sp",
    "candidates.seed_ms": "candidates.seed",
    "candidates.sample_heads_ms": "candidates.sample_heads",
    "candidates.combine_ms": "candidates.combine",
    "candidates.houdini_ms": "candidates.houdini",
    "candidates.llm_ms": "candidates.llm",
    "smt.busy_ms": "smt.check",
    "interp.replay_ms": "interp.replay",
    "summarize.hierarch_ms": "summarize.hierarch",
    "summarize.final_check_ms": "summarize.final_check",
}

COUNT_METRICS = (
    "paths.segments",
    "hoare.build_problem_calls", "hoare.body_paths",
    "hoare.checks.init", "hoare.checks.preserve", "hoare.checks.exit",
    "hoare.verdicts.valid", "hoare.verdicts.init_fail", "hoare.verdicts.preserve_fail",
    "hoare.verdicts.term_fail", "hoare.verdicts.inconclusive",
    "logic.sp_calls",
    "candidates.store_size", "candidates.emitted", "candidates.enumerated",
    "candidates.checked", "candidates.ce_rejected",
    "smt.queries", "smt.status.sat", "smt.status.unsat", "smt.status.unknown",
    "smt.status.timeout", "smt.status.error", "smt.dup_queries", "smt.script_bytes",
    "smt.lia_calls",
    "interp.replay_calls", "interp.runs",
    "summarize.refinements",
)

# what each count is taken from, beyond one per call of a span
_CALL_COUNTS = {
    "hoare.build_problem": "hoare.build_problem_calls",
    "hoare.check_init": "hoare.checks.init",
    "hoare.check_preserve": "hoare.checks.preserve",
    "hoare.check_exit": "hoare.checks.exit",
    "logic.sp": "logic.sp_calls",
    "smt.solve_lia": "smt.lia_calls",
    "interp.replay": "interp.replay_calls",
    "interp.run_program": "interp.runs",
}


class Tracer:
    """Spans and counts of the pathinv calls made while installed."""

    def __init__(self, mods):
        self._mods = mods
        self._undo: list = []
        self._stack: list = []    # open spans: [id, name, start, child time]
        self._next_id = 0
        self.op = None
        self.reset()

    def reset(self):
        """Forget everything recorded so far (one pass at a time)."""
        self.spans: list = []     # (id, parent id, op, name, start, end)
        self.total = defaultdict(float)      # span name -> seconds
        self.self_time = defaultdict(float)  # layer -> seconds
        self.counts = Counter()
        self.query_s: list = []
        self.found = 0
        self._scripts: set = set()

    # --- spans -----------------------------------------------------------------

    def _open(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0])

    def _close(self) -> float:
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, parent[0] if parent else None, self.op, name, start, end))
        self.total[name] += dur
        self.self_time[name.split(".", 1)[0]] += dur - child
        if name in _CALL_COUNTS:
            self.counts[_CALL_COUNTS[name]] += 1
        return dur

    def operation(self, op_id, fn, *args):
        """Run fn(*args) as operation `op_id`; its spans share that id."""
        self.op = op_id
        self._open("bench.op")
        try:
            return fn(*args)
        finally:
            self._close()
            self.op = None

    # --- wrappers --------------------------------------------------------------

    def _timed(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            refinement = name == "candidates.infer" and any(
                s[1] == "summarize.final_check" for s in self._stack)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if refinement:
                self.counts["summarize.refinements"] += 1
            if after is not None:
                after(result)
            return result
        return wrapper

    def _stream(self, fn):
        """combine() returns a generator: time each next() on it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def stream():
                while True:
                    self._open("candidates.combine")
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close()
                    self.counts["candidates.emitted"] += 1
                    yield item
            return stream()
        return wrapper

    def _counted_filter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            keep = fn(*args, **kwargs)
            if not keep:
                self.counts["candidates.ce_rejected"] += 1
            return keep
        return wrapper

    def _after(self, name):
        """What to count from the result of a call of span `name`."""
        def add(key, n):
            self.counts[key] += n
        if name == "paths.find":
            return lambda ps: add("paths.segments", len(ps.segments))
        if name == "hoare.build_problem":
            return lambda hp: add("hoare.body_paths", len(hp.body_paths))
        if name == "hoare.check":
            return lambda v: add(f"hoare.verdicts.{v.status}", 1)
        if name == "candidates.seed":
            return lambda store: add("candidates.store_size", len(store))
        if name == "candidates.infer":
            def infer(res):
                add("candidates.enumerated", res.candidates_enumerated)
                add("candidates.checked", res.candidates_checked)
                self.found += res.found
            return infer
        return None

    def _solver_check(self, fn):
        @functools.wraps(fn)
        def wrapper(solver, script):
            text = script.text()
            self._open("smt.check")
            try:
                res = fn(solver, script)
            finally:
                dur = self._close()
            key = hashlib.sha1(text.encode()).digest()
            self.counts["smt.dup_queries"] += key in self._scripts
            self._scripts.add(key)
            self.counts["smt.queries"] += 1
            self.counts["smt.script_bytes"] += len(text)
            self.counts[f"smt.status.{res.status}"] += 1
            self.query_s.append(dur)
            return res
        return wrapper

    def _rebind(self, attr, modules, make):
        orig = getattr(self._mods[modules[0]], attr)
        wrapped = make(orig)
        for name in modules:
            mod = self._mods[name]
            if getattr(mod, attr) is not orig:
                raise RuntimeError(f"{name}.{attr} is not {modules[0]}.{attr}")
            setattr(mod, attr, wrapped)
            self._undo.append((mod, attr, orig))

    def install(self):
        for name, bindings in SPANS.items():
            for attr, modules in bindings:
                self._rebind(attr, modules,
                             lambda f, n=name: self._timed(n, f, self._after(n)))
        self._rebind("combine", ("candidates",), self._stream)
        self._rebind("filter_by_ces", ("candidates",), self._counted_filter)
        solver_cls = self._mods["smt"].Solver
        orig = solver_cls.check
        solver_cls.check = self._solver_check(orig)
        self._undo.append((solver_cls, "check", orig))

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # --- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures of everything recorded since the last reset:
        times in ms, counts as recorded."""
        out = {m: self.total[span] * 1000 for m, span in TIME_METRICS.items()}
        out.update({m: self.counts[m] for m in COUNT_METRICS})
        ms = [s * 1000 for s in self.query_s] or [0.0]
        out["smt.query_ms.p50"] = percentile(ms, 50)
        out["smt.query_ms.p90"] = percentile(ms, 90)
        out["candidates.checked_per_found"] = (
            self.counts["candidates.checked"] / self.found if self.found else 0.0)
        out.update({f"{layer}.self_ms": self.self_time[layer] * 1000 for layer in LAYERS})
        out["trace.spans"] = len(self.spans)
        return out
