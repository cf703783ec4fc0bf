"""SMT solver driver (SMT-LIB 2 text, one query per call).

Solver discovery order: explicit path, the PATHINV_SOLVER environment
variable, z3 or cvc5 on PATH, and finally the bundled fallback so the
toolkit works without a system solver. External solvers run as one
subprocess per query; the bundled backend is called in-process (same
input and output text, without the process-spawn overhead). Either way
`SolverConfig.timeout_ms` bounds the query: the subprocess is killed, and
the bundled backend stops at a deadline and answers `timeout`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

from ..errors import ModelParseError, SolverFailure
from ..logic import SmtScript
from .minismt import read_sexprs, tokenize_sexpr

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"
TIMEOUT = "timeout"
ERROR = "error"


@dataclass(frozen=True)
class SolverConfig:
    executable: str
    args: tuple[str, ...] = ()
    timeout_ms: int = 10_000
    name: str = "generic"

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")


@dataclass(frozen=True)
class SolverResult:
    status: str
    model: dict[str, int] | None = None
    detail: str = ""

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT


def discover_solver(explicit: str | None = None, timeout_ms: int = 10_000) -> SolverConfig:
    if explicit:
        base = os.path.basename(explicit)
        if "z3" in base:
            return SolverConfig(explicit, ("-in",), timeout_ms, "z3-compatible")
        if "cvc5" in base:
            return SolverConfig(explicit, ("--produce-models",), timeout_ms, "cvc5-compatible")
        return SolverConfig(explicit, (), timeout_ms, "generic")
    env = os.environ.get("PATHINV_SOLVER")
    if env:
        return discover_solver(env, timeout_ms)
    z3 = shutil.which("z3")
    if z3:
        return SolverConfig(z3, ("-in",), timeout_ms, "z3-compatible")
    cvc5 = shutil.which("cvc5")
    if cvc5:
        return SolverConfig(cvc5, ("--produce-models",), timeout_ms, "cvc5-compatible")
    return bundled_solver(timeout_ms)


def bundled_solver(timeout_ms: int = 10_000) -> SolverConfig:
    return SolverConfig(sys.executable, ("-m", "pathinv.smt.minismt"), timeout_ms, "bundled")


def check(cfg: SolverConfig, script: SmtScript) -> SolverResult:
    """Run one query against the configured solver and interpret its output."""
    if cfg.name == "bundled":
        from .minismt import SmtInputError, run_script

        deadline = time.monotonic() + cfg.timeout_ms / 1000.0
        try:
            stdout = run_script(script.text(), deadline)
        except SmtInputError as exc:
            # same text the module's CLI entry point would print
            stdout = f'(error "{exc}")\nunknown\n'
        return _interpret_output(stdout, "", 0, script)
    try:
        proc = subprocess.run(
            [cfg.executable, *cfg.args],
            input=script.text(),
            capture_output=True,
            text=True,
            timeout=cfg.timeout_ms / 1000.0,
        )
    except subprocess.TimeoutExpired:
        return SolverResult(TIMEOUT)
    except OSError as exc:
        return SolverResult(ERROR, detail=str(exc))
    return _interpret_output(proc.stdout, proc.stderr, proc.returncode, script)


def _interpret_output(stdout: str, stderr: str, returncode: int,
                      script: SmtScript) -> SolverResult:
    status = None
    rest_lines = []
    for line in stdout.splitlines():
        stripped = line.strip()
        if status is None and stripped in (SAT, UNSAT, UNKNOWN, TIMEOUT):
            status = stripped
        elif status is not None:
            rest_lines.append(line)
    if status is None:
        detail = (stdout + stderr).strip()
        return SolverResult(ERROR, detail=detail or f"exit code {returncode}")
    if status == SAT and "(get-model)" in script.commands:
        model = parse_model("\n".join(rest_lines))
        missing = set(script.declarations) - set(model)
        if missing:
            raise ModelParseError("model misses declared variables", ", ".join(sorted(missing)))
        return SolverResult(SAT, model)
    return SolverResult(status)


def parse_model(text: str) -> dict[str, int]:
    """Parse get-model output; tolerant of z3/cvc5 layout variations."""
    try:
        exprs = read_sexprs(tokenize_sexpr(text))
    except Exception as exc:
        raise ModelParseError("unreadable model output", text[:200]) from exc

    defines = []

    def collect(node):
        if isinstance(node, list):
            if node and node[0] == "define-fun":
                defines.append(node)
            else:
                for item in node:
                    collect(item)

    for e in exprs:
        if isinstance(e, list) and e and e[0] == "model":
            collect(e[1:])
        else:
            collect(e)

    model = {}
    for d in defines:
        if len(d) != 5 or d[2] != []:
            raise ModelParseError("unsupported define-fun shape", repr(d))
        _, name, _, sort, value = d
        if sort != "Int":
            raise ModelParseError("non-Int sort in model", f"{name}: {sort}")
        model[name] = _int_value(value)
    return model


def _int_value(value) -> int:
    if isinstance(value, str) and value.lstrip("-").isdigit():
        return int(value)
    if isinstance(value, list) and len(value) == 2 and value[0] == "-":
        return -_int_value(value[1])
    raise ModelParseError("non-integer model value", repr(value))


@dataclass
class Solver:
    """A configured solver plus a query counter for reporting."""
    config: SolverConfig
    query_count: int = 0

    def check(self, script: SmtScript) -> SolverResult:
        self.query_count += 1
        return check(self.config, script)
