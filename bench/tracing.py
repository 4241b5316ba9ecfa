"""Timing wrappers around agqc's layers, installed from outside the program.

A wrapped module-level function is replaced in every ``agqc`` module
namespace that holds it (``commutes`` lives in ``pauli``, ``compiler``,
``sim`` and ``logical``); a wrapped method is replaced on its class.  Coarse
calls record a span with its parent's id and the id of the job that caused
it.  Hot kernels only add to a count and a cumulative time, which keeps the
overhead of millions of calls small.  Every wrapper keeps self time:
duration minus the time covered by traced children.  Spans stay in memory
until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (layer name, module, attribute or Class.method, hot kernel)
TARGETS = (
    ("cli.main", "agqc.cli", "main", False),
    ("gflow.find_gflow", "agqc.gflow", "find_gflow", False),
    ("gflow.verify_gflow", "agqc.gflow", "verify_gflow", False),
    ("pauli.commutes", "agqc.pauli", "commutes", True),
    ("pauli.mul", "agqc.pauli", "RotatedPauliOp.mul", True),
    ("pauli.render", "agqc.pauli", "RotatedPauliOp.render", True),
    ("pauli.apply_op", "agqc.pauli", "apply_op", True),
    ("pauli.to_matrix", "agqc.pauli", "to_matrix", False),
    ("compiler.compile", "agqc.compiler", "compile_stepwise", False),
    ("compiler.compile", "agqc.compiler", "compile_layered", False),
    ("compiler.compile", "agqc.compiler", "compile_one_step", False),
    ("compiler.compile", "agqc.compiler", "compile_reordered_fixed", False),
    ("compiler.compile", "agqc.compiler", "compile_reordered_strip", False),
    ("compiler.is_commuting_replacement", "agqc.compiler",
     "ScheduleStep.is_commuting_replacement", False),
    ("sim.step_endpoint_matrices", "agqc.sim", "step_endpoint_matrices", False),
    ("sim.evolve", "agqc.sim", "evolve", False),
    ("sim.spectral_scan", "agqc.sim", "spectral_scan", False),
    ("sim.conserved_operator_check", "agqc.sim", "conserved_operator_check", False),
    ("sim.logical_basis_from_ops", "agqc.sim", "logical_basis_from_ops", False),
    ("sim.mbqc_reference_run", "agqc.sim", "mbqc_reference_run", False),
    ("logical.compare", "agqc.logical", "compare", False),
    ("logical.propagate", "agqc.logical", "propagate", False),
    ("logical.frame_unitary", "agqc.logical", "frame_unitary", False),
)

LAYERS = tuple(dict.fromkeys(name for name, *_ in TARGETS))


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


# work counts beyond calls: sim.evolve.steps, sim.spectral_scan.points
WORK = {
    "sim.evolve": ("steps", lambda a, k: len(_arg(a, k, 0, "schedule").steps)),
    "sim.spectral_scan": ("points", lambda a, k: len(_arg(a, k, 2, "s_grid"))),
}


class Tracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.work: Counter[str] = Counter()
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [child seconds, span id, job id]
        self._ids = 0
        self._undo: list[tuple[object, str, object]] = []
        self._origin = perf_counter()

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    def wrap(self, name: str, fn, hot: bool):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        work = WORK.get(name)

        if hot:
            def wrapper(*args, **kwargs):
                frame = [0.0, None, None]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    self_s[name] += dur - frame[0]
                    calls[name] += 1
                    if stack:
                        stack[-1][0] += dur
        else:
            def wrapper(*args, **kwargs):
                parent = stack[-1] if stack else [0.0, None, None]
                frame = [0.0, self._new_id(), parent[2]]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    self_s[name] += t1 - t0 - frame[0]
                    calls[name] += 1
                    parent[0] += t1 - t0
                    if work is not None:
                        self.work[f"{name}.{work[0]}"] += work[1](args, kwargs)
                    self.spans.append({
                        "id": frame[1], "parent": parent[1], "job": frame[2], "name": name,
                        "start": t0 - self._origin, "end": t1 - self._origin,
                    })

        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def job(self, name: str):
        """Root span of one job; spans it causes carry its id as ``job``."""
        span_id = self._new_id()
        self._stack.append([0.0, span_id, span_id])
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append({
                "id": span_id, "parent": None, "job": span_id, "name": f"job:{name}",
                "start": t0 - self._origin, "end": t1 - self._origin,
            })

    def install(self) -> None:
        agqc_modules = [m for k, m in sys.modules.items() if k == "agqc" or k.startswith("agqc.")]
        for name, module, attr, hot in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig, hot))
                continue
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig, hot)
            for mod in agqc_modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
