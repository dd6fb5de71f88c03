"""In-memory spans around the public functions of the ``fluxspot`` modules.

``Tracer.install()`` replaces every public function wherever a ``fluxspot``
module namespace holds it (``solve_floquet`` is imported into ``evaluation``
and ``dss``, ``optimize_pulse`` into ``workbench``), plus
``RunDirectory.write_bytes`` on its class, with a wrapper that records a span;
``uninstall()`` puts the originals back.  The library itself is not changed.

A span is ``(name, start, end, parent, run_id)``: ``parent`` is the index of
the enclosing span (-1 at the root) and ``run_id`` numbers the verb
invocation the span belongs to.  Spans stay in memory until ``write()``.
The tracer assumes a single thread, which is how the benchmark drives the
library.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

MODULES = (
    "circuit",
    "floquet",
    "noise",
    "evaluation",
    "pareto",
    "dss",
    "gates",
    "lindblad",
    "reference",
    "workbench",
    "cli",
)

#: Scalar predicate called O(pool^2) times per selection; a span per call
#: would cost more than the call itself, so its time stays with its caller.
UNTRACED = {"dominates"}

_QUBITS = {2: "1q", 4: "2q"}


def _tag(name: str, args: tuple) -> str | None:
    """Suffix that splits one function's spans by the work it was given."""
    if name == "pareto.environmental_select":
        return args[0]
    if name == "pareto.run_stage1":
        return args[0].strategy
    if name == "gates.optimize_pulse":
        return f"{args[0].n_controls}q"
    if name == "lindblad.process_tomography":
        return _QUBITS.get(args[1], str(args[1]))
    return None


class Tracer:
    """Span recorder; ``install()`` turns it on for the ``fluxspot`` modules."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.run_id = 0
        self.counters: dict = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ spans

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = _tag(name, args)
            idx = tracer.begin(f"{name}.{tag}" if tag else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer._count(name, args, kwargs, result)
            return result

        return traced

    def _count(self, name: str, args: tuple, kwargs: dict, result) -> None:
        if name == "evaluation.evaluate_genome":
            self.counters["evaluation.feasible"] += result[1] is not None
        elif name == "workbench.RunDirectory.write_bytes":
            self.counters["workbench.write_bytes.bytes"] += len(args[2])
        elif name == "gates.optimize_pulse":
            from fluxspot.gates import GrapeSettings

            settings = args[3] if len(args) > 3 else kwargs.get("settings", GrapeSettings())
            key = f"gates.optimize_pulse.{args[0].n_controls}q.iterations"
            self.counters[key] += settings.iterations

    # ------------------------------------------------------- installing

    def install(self) -> None:
        """Wrap the public functions of every ``fluxspot`` module."""
        mods = [importlib.import_module("fluxspot")] + [
            importlib.import_module(f"fluxspot.{m}") for m in MODULES
        ]
        wrapped: dict = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if (
                    not inspect.isfunction(obj)
                    or attr.startswith("_")
                    or not obj.__module__.startswith("fluxspot.")
                    or obj.__name__ in UNTRACED
                ):
                    continue
                if obj not in wrapped:
                    short = obj.__module__.split(".", 1)[1]
                    wrapped[obj] = self._wrapper(obj, f"{short}.{obj.__name__}")
                self._restore.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])
        run_dir = importlib.import_module("fluxspot.workbench").RunDirectory
        self._restore.append((run_dir, "write_bytes", run_dir.write_bytes))
        run_dir.write_bytes = self._wrapper(
            run_dir.write_bytes, "workbench.RunDirectory.write_bytes"
        )

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # ---------------------------------------------------------- results

    def write(self, path: Path) -> None:
        """Spans as JSON: a name table and one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], a, b, p, r] for n, a, b, p, r in self.spans]
        Path(path).write_text(
            json.dumps({"names": names, "columns": ["name", "start", "end",
                        "parent", "run_id"], "spans": rows})
        )


def self_times(spans, layers=None) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    With ``layers`` (a set of span names), the subtracted spans are instead
    the outermost descendants whose name is in ``layers``: the time a span
    spends outside those layers, however deep they are called.  Subtracted
    spans may overlap each other (spans from several threads share a
    parent); the covered time is the length of the union of their intervals.
    """
    children: dict = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)

    def covering(i):
        for c in children.get(i, ()):
            if layers is None or spans[c][0] in layers:
                yield spans[c][1], spans[c][2]
            else:
                yield from covering(c)

    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(covering(i)):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans, layers=None) -> dict:
    """Per span name: calls, inclusive seconds and self seconds (see
    ``self_times`` for ``layers``)."""
    selfs = self_times(spans, layers)
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for (name, start, end, _, _), self_s in zip(spans, selfs):
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += self_s
    return dict(out)
