"""In-process spans around the public functions of the gcproi modules.

The tracer replaces each public function of each layer module with a
wrapper at every module attribute that holds it, so that calls made through
``from .ingest import parse_games`` bindings are traced as well as calls
made through ``finance.sgv``-style attribute lookups. Nothing under
``src/`` is modified; ``uninstall`` puts the original functions back.

Spans are kept in memory as ``[name, start, end, parent, counts]`` lists.
Calls are single-threaded, so a span's children never overlap and its self
time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import statistics
import time

#: The modules of src/gcproi that do work, in pipeline order. ``errors``
#: only defines exception types.
LAYERS = ("ingest", "fields", "gcp", "finance", "reporting", "cli", "synth")

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name: str) -> str:
    """Return name unchanged, or raise ValueError if it is not a valid
    metric name: 1 to 64 of ``[A-Za-z0-9_.-]``, starting with a letter or
    digit."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _parse_counts(rows_by_path):
    def count(args, kwargs, ds):
        rows = rows_by_path[str(args[0])]
        active = sum(len(g.lines) for g in ds.games)
        return {"ingest.rows": rows, "ingest.active_lines": active,
                "ingest.inactive_dropped": rows - active}
    return count


#: Work counted at a layer boundary, from the call's arguments and result,
#: as metric names relative to the subcommand prefix. Each counter is O(1)
#: or one pass over the games, so it adds nothing measurable to the
#: parent's self time.
COUNTERS = {
    "finance.player_schedule": lambda args, kwargs, slots: {
        "finance.player_schedule.slots": len(slots)},
    "finance.irr": lambda args, kwargs, res: {"finance.irr.evals": res.iterations},
    "finance.npv": lambda args, kwargs, res: {"finance.npv.terms": len(args[1].flows)},
}


class Tracer:
    """Records spans around every public function of LAYERS while installed."""

    def __init__(self, rows_by_path: dict[str, int]) -> None:
        """rows_by_path: data rows of each games file that will be parsed."""
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        parse = _parse_counts(rows_by_path)
        self._counters = dict(COUNTERS, **{"ingest.parse_games": parse,
                                           "ingest.parse_games_raw": parse})

    # -- recording -----------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        counter = self._counters.get(name)
        if counter is not None:
            record[4] = counter(args, kwargs, result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        modules = [importlib.import_module(f"gcproi.{m}") for m in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    self._originals[f"{layer}.{attr}"] = obj
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self._originals.items()}
        # Wrap every binding, including ``from .x import f`` copies in other
        # modules and the package namespace, so no call path escapes.
        for mod in [importlib.import_module("gcproi"), *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def original(self, name: str):
        """The unwrapped function behind span name, e.g. "ingest.parse_games"."""
        return self._originals[name]

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def root_time(spans: list[list]) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def layer_metrics(spans: list[list], prefix: str) -> dict[str, float]:
    """Flatten spans into metrics named ``<prefix>.<layer>.<fn>.self_s`` and
    ``.calls``, ``<prefix>.<layer>.self_s`` summed over the layer's
    functions, every counter summed, and for each ``evals`` counter its
    median and maximum per call."""
    out: dict[str, float] = {}
    per_call: dict[str, list[int]] = {}
    for name, _, _, _, counts in spans:
        key = f"{prefix}.{name}.calls"
        out[key] = out.get(key, 0) + 1
        for field, value in (counts or {}).items():
            key = f"{prefix}.{field}"
            out[key] = out.get(key, 0) + value
            if field.endswith(".evals"):
                per_call.setdefault(key, []).append(value)
    for name, value in self_times(spans).items():
        out[f"{prefix}.{name}.self_s"] = value
        layer = f"{prefix}.{name.split('.')[0]}.self_s"
        out[layer] = out.get(layer, 0.0) + value
    for key, evals in per_call.items():
        out[f"{key}_p50"] = statistics.median(evals)
        out[f"{key}_max"] = max(evals)
    return out
