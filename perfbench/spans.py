"""Per-layer tracing from outside the library.

Wraps the public entry points of the tomq layers, records one span per call
(layer, parent span, start, end) in flat arrays, and turns them into per-layer
calls, self time, inclusive time and repeat share when the run ends. Nothing
inside src/ changes: the wrappers replace each entry point at its defining
module or class and at every module that imported it by name.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional


def argkey(x):
    """A hashable stand-in for an argument: the library's canonical key when
    the object has one, else the object itself."""
    k = getattr(x, "_key", None)
    if k is not None:
        return k
    if isinstance(x, (list, tuple)):
        return tuple(argkey(y) for y in x)
    return x


def _pure(args, kwargs):
    return tuple(argkey(a) for a in args) + tuple(sorted((k, argkey(v)) for k, v in kwargs.items()))


def _method(args, kwargs):
    # the Reasoner registry keeps one instance per ontology, so the instance
    # stands for its ontology
    return (id(args[0]),) + _pure(args[1:], kwargs)


def _matcher_run(args, kwargs):
    m, dinst = args
    return (
        id(m.r),
        tuple(b._key for b in m.bodies),
        m.rels,
        None if m.fillers is None else tuple(argkey(f) for f in m.fillers),
        dinst._key,
    )


def _frontier_of(args, kwargs):
    learner, q = args
    return (learner.onto, learner.config.qclass, learner.config.frontier_bound, q._key)


@dataclass(frozen=True)
class Layer:
    name: str                 # metric prefix, <module>.<entry>
    module: str
    qualname: str
    key: Optional[Callable]   # argument key for pure entry points, None otherwise
    refusals: bool = False    # count calls returning None


LAYERS = (
    Layer("dl.saturate", "tomq.dl.reason", "Reasoner.saturate", _method),
    Layer("dl.chase", "tomq.dl.reason", "Reasoner.chase", _method),
    Layer("dl.hat", "tomq.dl.reason", "Reasoner.hat", _method),
    Layer("dl.certain_answer", "tomq.dl.reason", "Reasoner.certain_answer", _method),
    Layer("dl.contains", "tomq.dl.reason", "Reasoner.contains", _method),
    Layer("dl.hom_exists", "tomq.dl.reason", "hom_exists", _pure),
    Layer("domainchar.frontier", "tomq.domainchar", "frontier", _pure, refusals=True),
    Layer("domainchar.path_probes", "tomq.domainchar", "path_probes", _pure),
    Layer("domainchar.split_partner", "tomq.domainchar", "split_partner", _pure),
    Layer("domainchar.negatives_for", "tomq.domainchar", "negatives_for", _pure),
    Layer("verify.enum_domain_queries", "tomq.verify", "enum_domain_queries", _pure),
    Layer("verify.check_frontier", "tomq.verify", "check_frontier", _pure),
    Layer("verify.check_unique_characterisation", "tomq.verify", "check_unique_characterisation", _pure),
    Layer("verify.tequiv_bounded", "tomq.verify", "tequiv_bounded", _pure),
    Layer("temporal.SequenceMatcher.run", "tomq.temporal.eval", "SequenceMatcher.run", _matcher_run),
    Layer("temporal.tentail", "tomq.temporal.eval", "tentail", _pure),
    Layer("temporal.normalize", "tomq.temporal.normal", "normalize", _pure),
    Layer("temporal.is_safe", "tomq.temporal.normal", "is_safe", _pure),
    Layer("tempchar.characterise_dia", "tomq.tempchar", "characterise_dia", _pure),
    Layer("tempchar.characterise_until", "tomq.tempchar", "characterise_until", _pure),
    Layer("learn.Teacher.membership", "tomq.learn", "Teacher.membership", None),
    Layer("learn.Learner.frontier_of", "tomq.learn", "Learner.frontier_of", _frontier_of),
    Layer("learn.Learner.treeify", "tomq.learn", "Learner.treeify", None),
    Layer("learn.Learner.drop_timepoints", "tomq.learn", "Learner.drop_timepoints", None),
    Layer("learn.Learner.tagged_from_slices", "tomq.learn", "Learner.tagged_from_slices", None),
    Layer("learn.Learner.close_under_rules", "tomq.learn", "Learner.close_under_rules", None),
    Layer("learn.Learner.star_step", "tomq.learn", "Learner.star_step", None),
    Layer("learn.Learner.infer_connectors", "tomq.learn", "Learner.infer_connectors", None),
)

# Layers each workload must keep busy; a traced run in which one of them
# records no call has lost a wrapper and fails.
PREDICTED_BUSY = {
    "learn": ("domainchar.path_probes",),
    "characterise": ("temporal.SequenceMatcher.run",),
    "answer": ("dl.saturate",),
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric (name, unit), in a fixed order. Times are
    shares of the traced op time: a layer a workload never calls reads 0
    on every run, which as a time in seconds would look unmeasured. The
    seconds themselves are in the summary too."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer.name}.calls", "count"), (f"{layer.name}.self_share", "ratio"),
                (f"{layer.name}.incl_share", "ratio")]
        if layer.key is not None:
            out.append((f"{layer.name}.repeat_frac", "ratio"))
        if layer.refusals:
            out.append((f"{layer.name}.refused_frac", "ratio"))
    return out


class Tracer:
    """Spans in flat arrays: span i has layer[i], parent[i] (-1 at the top),
    start[i], end[i], and nested[i] when an enclosing span has the same layer."""

    def __init__(self):
        self.layers = layers = LAYERS
        self.layer = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")
        self._stack: list[int] = []
        self._active = [0] * len(layers)
        self._seen = [set() for _ in layers]
        self._repeats = [0] * len(layers)
        self._keyed = [0] * len(layers)
        self._refused = [0] * len(layers)

    # ------------------------------------------------------------ recording

    def _wrap(self, idx: int, fn):
        layer = self.layers[idx]
        key, refusals = layer.key, layer.refusals
        stack, active = self._stack, self._active
        seen, repeats, keyed, refused = self._seen[idx], self._repeats, self._keyed, self._refused
        lay, par, start, end, nested = self.layer, self.parent, self.start, self.end, self.nested
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if key is not None:
                try:
                    h = hash(key(args, kwargs))
                except TypeError:
                    h = None
                if h is not None:
                    keyed[idx] += 1
                    if h in seen:
                        repeats[idx] += 1
                    else:
                        seen.add(h)
            i = len(lay)
            lay.append(idx)
            par.append(stack[-1] if stack else -1)
            nested.append(1 if active[idx] else 0)
            end.append(0.0)
            stack.append(i)
            active[idx] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                active[idx] -= 1
                stack.pop()
            if refusals and result is None:
                refused[idx] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every entry point at its home: methods on their class,
        functions in every loaded module that holds them under some name."""
        originals = {}
        for idx, layer in enumerate(self.layers):
            module = importlib.import_module(layer.module)
            owner_name, _, attr = layer.qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapper = self._wrap(idx, original)
            if owner_name:
                setattr(owner, attr, wrapper)
            else:
                originals[id(original)] = wrapper
        for mod in list(sys.modules.values()):
            for name, value in list(vars(mod).items()):
                if id(value) in originals:
                    setattr(mod, name, originals[id(value)])

    # -------------------------------------------------------------- summary

    def counters(self) -> dict[str, list[float]]:
        """Per-layer totals that add up across processes: [calls, self
        seconds, inclusive seconds, keyed calls, repeated calls, refusals]."""
        n_layers = len(self.layers)
        calls = [0] * n_layers
        incl = [0.0] * n_layers
        selfs = [0.0] * n_layers
        child = [0.0] * len(self.layer)
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        for i, idx in enumerate(self.layer):
            calls[idx] += 1
            selfs[idx] += dur[i] - child[i]
            if not self.nested[i]:
                incl[idx] += dur[i]
        return {
            layer.name: [calls[idx], selfs[idx], incl[idx],
                         self._keyed[idx], self._repeats[idx], self._refused[idx]]
            for idx, layer in enumerate(self.layers)
        }

    def summary(self, op_seconds: float) -> dict[str, float]:
        return summarise(self.counters(), op_seconds)


def add_counters(total: dict[str, list[float]], more: dict[str, list[float]]) -> None:
    """Add another process's Tracer.counters() into `total`."""
    for name, values in more.items():
        total[name] = [a + b for a, b in zip(total[name], values)]


def summarise(counters: dict[str, list[float]], op_seconds: float) -> dict[str, float]:
    """Per-layer calls, self and inclusive seconds, their shares of
    `op_seconds`, repeat and refusal shares."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        calls, selfs, incl, keyed, repeats, refused = counters[layer.name]
        out[f"{layer.name}.calls"] = calls
        out[f"{layer.name}.self_s"] = selfs
        out[f"{layer.name}.incl_s"] = incl
        out[f"{layer.name}.self_share"] = selfs / op_seconds
        out[f"{layer.name}.incl_share"] = incl / op_seconds
        if layer.key is not None:
            out[f"{layer.name}.repeat_frac"] = repeats / keyed if keyed else 0.0
        if layer.refusals:
            out[f"{layer.name}.refused_frac"] = refused / calls if calls else 0.0
    return out
