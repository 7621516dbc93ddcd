"""Spans and counters around enforcekit's public functions, from outside.

The tracer replaces each traced function in every enforcekit namespace that
holds it (``from .enforcement import enforce_trace`` makes a second binding
in ``oracle`` and ``cli``, which a patch of ``enforcement`` alone would
miss), records a span per call, and puts every original back on
:meth:`Tracer.restore`. Hot methods called per event or per instance step
get a counter instead of a span, which keeps the traced run close to the
untraced one.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span in :attr:`Tracer.spans`, or -1.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from types import ModuleType

# (module, function name, span name). Every namespace that binds the same
# function object is patched, the defining module included.
SPANNED_FUNCTIONS = (
    ("events", "parse_trace", "events.parse_trace"),
    ("events", "serialize_trace", "events.serialize_trace"),
    ("dsl", "parse_document", "dsl.load"),
    ("dsl", "parse_policy", "dsl.load"),
    ("dsl", "parse_monitor", "dsl.load"),
    ("enforcement", "enforce_trace", "enforcement.enforce_trace"),
    ("enforcement", "enforce_event", "enforcement.enforce_event"),
    ("oracle", "check", "oracle.check"),
    ("oracle", "brute_force_verify", "oracle.verify"),
    ("simulator", "parse_scenario", "simulator.parse_scenario"),
    ("simulator", "run_scenario", "simulator.run_scenario"),
    ("cli", "main", "cli.main"),
)
COUNTED_FUNCTIONS = (("policy", "index_transitions", "policy.index_transitions_calls"),)
# (module, class, attribute, counter name): per-event and per-step methods.
COUNTED_METHODS = (
    ("events", "Event", "__post_init__", "events.event_constructions"),
    ("enforcement", "AutomatonInstance", "__post_init__", "enforcement.instances_created"),
    ("enforcement", "AutomatonInstance", "step", "enforcement.instance_steps"),
)


def _namespaces() -> list[ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "enforcekit" or name.startswith("enforcekit."))
    ]


class Tracer:
    """Records spans and counts while installed; restores on exit."""

    def __init__(self, mods):
        self.mods = mods
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.live_peak = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _end, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)

    def _spanned(self, name: str, fn):
        after = {
            "enforcement.enforce_trace": self._after_enforce_trace,
            "enforcement.enforce_event": self._after_enforce_event,
            "oracle.verify": self._after_verify,
            "simulator.run_scenario": self._after_run_scenario,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _spanned_generator(self, name: str, fn):
        """Time each ``next`` of a generator as its own span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        return wrapper

    def _counted(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- what the spans return ---------------------------------------------

    def _live(self, registry) -> None:
        live = sum(len(module.instances) for module in registry.modules)
        if live > self.live_peak:
            self.live_peak = live

    def _after_enforce_trace(self, args, kwargs, result) -> None:
        registry, trace = args[0], args[1]
        total = result[1].total
        self.counts["enforcement.input_events"] += len(trace)
        self.counts["enforcement.inserted"] += total.inserted
        self.counts["enforcement.suppressed"] += total.suppressed
        self._live(registry)

    def _after_enforce_event(self, args, kwargs, result) -> None:
        registry, event = args[0], args[1]
        self.counts["enforcement.input_events"] += 1
        passed = any(out is event for out in result)
        self.counts["enforcement.inserted"] += len(result) - passed
        self.counts["enforcement.suppressed"] += not passed
        self._live(registry)

    def _after_verify(self, args, kwargs, result) -> None:
        self.counts["oracle.traces_checked"] += result.traces_checked

    def _after_run_scenario(self, args, kwargs, result) -> None:
        registry = args[1] if len(args) > 1 else kwargs.get("registry")
        report = result[1]
        if registry is None:
            self.counts["simulator.leaks_baseline"] += len(report.leaks)
        else:
            self.counts["simulator.leaks_enforced"] += len(report.leaks)
            self.counts["simulator.denied_enforced"] += len(report.denied)

    # -- install / restore -------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        for namespace in _namespaces():
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    self._patch(namespace, attr, replacement)

    def install(self) -> None:
        mods = self.mods
        for module, attr, name in SPANNED_FUNCTIONS:
            original = getattr(getattr(mods, module), attr)
            self._patch_everywhere(original, self._spanned(name, original))
        for module, attr, counter in COUNTED_FUNCTIONS:
            original = getattr(getattr(mods, module), attr)
            self._patch_everywhere(original, self._counted(counter, original))
        enumerate_traces = mods.oracle.enumerate_traces
        self._patch_everywhere(
            enumerate_traces, self._spanned_generator("oracle.enumerate", enumerate_traces)
        )
        trace_cls = mods.events.Trace
        renumbered = trace_cls.__dict__["renumbered"].__func__
        self._patch(
            trace_cls, "renumbered", staticmethod(self._spanned("events.renumbered", renumbered))
        )
        for module, cls_name, attr, counter in COUNTED_METHODS:
            cls = getattr(getattr(mods, module), cls_name)
            self._patch(cls, attr, self._counted(counter, cls.__dict__[attr]))
        module_cls = mods.enforcement.ProactiveModule
        alphabet_match = module_cls.__dict__["alphabet_match"]
        counts = self.counts

        @functools.wraps(alphabet_match)
        def counted_match(module, event):
            pattern = alphabet_match(module, event)
            counts["enforcement.alphabet_checks"] += 1
            counts["enforcement.alphabet_hits"] += pattern is not None
            return pattern

        self._patch(module_cls, "alphabet_match", counted_match)

    def restore(self) -> None:
        """Put back every original, in reverse order of patching."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis ----------------------------------------------------------

    def take(self) -> tuple[list, Counter, int]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts, live = self.spans, Counter(self.counts), self.live_peak
        # The wrappers hold on to this Counter, so empty it in place.
        self.spans, self.live_peak = [], 0
        self.counts.clear()
        return spans, counts, live


def span_totals(spans: list) -> tuple[Counter, Counter, Counter]:
    """Per span name: total time, self time and call count.

    A span nested directly in a span of the same name (``parse_document``
    calling ``parse_policy``) is folded into its parent, so time is never
    counted twice. Self time is a span's duration minus the time its child
    spans cover.
    """
    total: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        self_time[name] += duration - children[index]
        if parent >= 0 and spans[parent][0] == name:
            continue
        total[name] += duration
        calls[name] += 1
    return total, self_time, calls
