"""In-memory span tracer that wraps mole's public functions from outside.

A span is (name, start, end, parent). The tracer keeps every span in memory
and writes them out once, at the end of a run. While a span is open, the time
its child spans cover is summed, so each span also yields a self time (its
duration minus the time of its children). Wrapping happens by replacing
attributes: methods on their classes, and module functions in every ``mole``
module that holds them (``from .model import evaluate`` binds the function in
``mole.cli`` too, so patching one module alone would miss those calls).
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def method(self, module: str, owner: str, attr: str, make_wrapper) -> bool:
        """Wrap ``module.owner.attr``; False when a later version dropped it."""
        cls = getattr(_import(module), owner, None)
        original = getattr(cls, attr, None) if cls is not None else None
        if original is None:
            return False
        self._set(cls, attr, make_wrapper(original), original)
        return True

    def function(self, module: str, attr: str, make_wrapper) -> bool:
        """Wrap a module function wherever a ``mole`` module binds it."""
        original = getattr(_import(module), attr, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        for mod in [m for name, m in sys.modules.items()
                    if m is not None and (name == "mole" or name.startswith("mole."))]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper, original)
        return True

    def _set(self, owner, attr, value, original) -> None:
        setattr(owner, attr, value)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _import(module: str):
    try:
        return importlib.import_module(module)
    except ImportError:
        return None


class Tracer:
    """Collects spans and, per round, the self and total time of each name."""

    def __init__(self, origin: float):
        self.origin = origin
        self.spans: list[tuple] = []         # (name, start, end, parent index)
        self.marks: list[tuple[str, float]] = []
        self._stack: list[list] = []         # [span index, child seconds]
        self.reset_round()

    def reset_round(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)

    def mark(self, label: str) -> None:
        """Record a phase boundary (set-up, round n) in the span file."""
        self.marks.append((label, perf_counter() - self.origin))

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            # a tuple of plain values, which the cyclic collector stops tracking
            self.spans[frame[0]] = (name, start - self.origin, end - self.origin, parent)
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration

    def round_summary(self) -> dict:
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()}}

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(meta, marks=self.marks,
                           fields=["name", "start_s", "end_s", "parent"],
                           spans=[[n, round(s, 7), round(e, 7), p]
                                  for n, s, e, p in self.spans]), fh)
            fh.write("\n")


def _span(tracer: Tracer, name: str, before=None):
    """Wrapper factory: run `before(args)` outside the span, then the call in it."""
    def make(original):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            return tracer.call(name, original, *args, **kwargs)
        return wrapper
    return make


def count_graph_nodes(root) -> int | None:
    """Tensors reachable from `root` through recorded parents; None if the
    engine no longer exposes them."""
    if not hasattr(root, "_parents"):
        return None
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def install(tracer: Tracer, patches: Patches) -> list[str]:
    """Wrap every traced boundary; returns the span names that found no target."""

    def on_backward(args, kwargs):
        nodes = tracer.call("trace.count_nodes", count_graph_nodes, args[0])
        if nodes is not None:
            tracer.samples["graph_nodes"].append(float(nodes))

    def on_linear(args, kwargs):
        layer, x = args[0], args[1]
        tracer.counts["routed_rows"] += x.shape[0] * layer.router.k

    def on_expert(args, kwargs):
        tracer.counts["expert_rows"] += args[1].shape[0]

    targets = [
        ("method", "mole.tensor", "Tensor", "backward", "tensor.backward", on_backward),
        ("method", "mole.tensor", "Rng", "child", "tensor.rng_child", None),
        ("method", "mole.adapters", "AdaptedLinear", "forward", "adapters.linear", on_linear),
        ("method", "mole.adapters", "Router", "gate", "adapters.gate", None),
        ("method", "mole.adapters", "LoraExpert", "delta", "adapters.expert", on_expert),
        ("function", "mole.adapters", None, "balance_loss_tensor", "adapters.balance_loss", None),
        ("method", "mole.model", "AdaptedModel", "forward", "model.forward", None),
        ("method", "mole.model", "Block", "forward", "model.block", None),
        ("function", "mole.tensor", None, "cross_entropy", "model.loss", None),
        ("function", "mole.tensor", None, "rows_at", "model.loss", None),
        ("method", "mole.model", "AdamW", "step", "model.adamw", None),
        ("function", "mole.model", None, "train_step", "model.train_step", None),
        ("function", "mole.model", None, "evaluate", "model.evaluate", None),
        ("function", "mole.checkpoint", None, "save", "checkpoint.save", None),
        ("function", "mole.checkpoint", None, "load", "checkpoint.load", None),
        ("function", "mole.analysis", None, "router_stats", "analysis.router_stats", None),
        ("function", "mole.analysis", None, "redundancy_report", "analysis.redundancy", None),
        ("function", "mole.tasks", None, "generate_task", "tasks.generate", None),
        ("function", "mole.cli", None, "main", "cli.main", None),
    ]
    missing = []
    for kind, module, owner, attr, name, before in targets:
        make = _span(tracer, name, before)
        found = (patches.method(module, owner, attr, make) if kind == "method"
                 else patches.function(module, attr, make))
        if not found:
            missing.append(name)
    return missing
