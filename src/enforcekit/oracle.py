"""Independent checking of traces: monitor replay and brute-force search.

A monitor (:class:`~enforcekit.policy.MonitorAutomaton`) is a keyed
acceptor with no edit or output machinery, so it can serve as an oracle
for the enforcement pipeline. This module checks traces against monitors
and verifies policies: :func:`check` says whether a trace violates a
monitor's property, and bounded exhaustive enumeration over a concrete
event universe establishes, up to that bound, that enforcement output
never violates the property (soundness) and that compliant traces pass
through untouched (transparency).

The enumeration shares prefixes: each trace extends its parent's saved
enforcement and monitor state by one event, so it costs one pipeline step
plus monitor steps on the new input event and the events it emitted.
Counterexamples are listed shortest first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

# brute_force_verify no longer calls enforce_trace, but the benchmark's
# tracer test expects this module to bind it (benchmarks/test_benchmark.py).
from .enforcement import (
    EnforcementError,
    ModuleRegistry,
    _enforce_input,
    enforce_trace,  # noqa: F401
)
from .events import Event, Trace, _frozen, _trusted
from .policy import (
    Diagnostic,
    DispatchError,
    MonitorAutomaton,
    PolicySpec,
    automaton_diagnostics,
)

__all__ = [
    "Violation",
    "EventUniverse",
    "Verdict",
    "check",
    "validate_monitor",
    "enumerate_traces",
    "brute_force_verify",
]


@_frozen
class Violation:
    """One transition into an error state while replaying a trace."""

    seq: int
    key: tuple[str, ...]
    state: str

    def __str__(self) -> str:
        where = ",".join(self.key) or "<singleton>"
        return f"seq {self.seq}: instance {where} entered error state {self.state}"


def validate_monitor(monitor: MonitorAutomaton) -> list[Diagnostic]:
    """Nondeterminism errors and unreachable-state warnings for a monitor."""
    return automaton_diagnostics(monitor)


def check(trace: Trace, monitor: MonitorAutomaton) -> list[Violation]:
    """Replay a trace against a monitor; one violation per error entry.

    The replay is deterministic and total, as :func:`_step_monitor` sets
    out. Violations of a trace prefix are a prefix of the full trace's
    violations.
    """
    states: dict[tuple[str, ...], str] = {}
    violations: list[Violation] = []
    for event in trace:
        violations += _step_monitor(monitor, states, event)
    return violations


def _step_monitor(
    monitor: MonitorAutomaton, states: dict[tuple[str, ...], str], event: Event
) -> list[Violation]:
    """Step the instances one event addresses; the violations it causes.

    ``states`` maps instance keys to states and is updated in place.
    Alphabet events with no matching transition self-loop, events outside
    the alphabet are ignored, and error states absorb. An event that
    cannot be keyed to an instance is skipped; :meth:`MonitorAutomaton.route`
    states that rule.
    """
    pattern = monitor.match(event)
    if pattern is None:
        return []
    try:
        keys, _bindings = monitor.route(event, pattern, states)
    except DispatchError:
        return []
    errors = monitor.error_states
    violations: list[Violation] = []
    for key in keys:
        current = states.setdefault(key, monitor.initial)
        if current in errors:
            continue
        t = monitor.transition(current, event)
        if t is not None:
            states[key] = t.target
            if t.target in errors:
                violations.append(Violation(event.seq, key, t.target))
    return violations


@_frozen
class EventUniverse:
    """A concrete alphabet of events plus a length bound for enumeration."""

    alphabet: tuple[Event, ...]
    max_len: int

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        if not self.alphabet:
            raise ValueError("the alphabet must be non-empty")
        if not isinstance(self.max_len, int) or isinstance(self.max_len, bool):
            raise TypeError(f"max_len must be an int, got {self.max_len!r}")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")
        if len(set(e.literal() for e in self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet events must be distinct")

    def size(self) -> int:
        """Number of traces of length 0..max_len over the alphabet."""
        base, n = len(self.alphabet), self.max_len
        return n + 1 if base == 1 else (base ** (n + 1) - 1) // (base - 1)


def enumerate_traces(universe: EventUniverse) -> Iterator[Trace]:
    """Yield every trace over the universe, shortest first.

    Traces of equal length come in lexicographic order of the alphabet's
    declaration order; events are renumbered seq 1..n. The stream is
    generated lazily, so memory stays constant regardless of the bound.
    """
    yield Trace(())
    variants = _positioned(universe)
    indices = range(len(universe.alphabet))
    for length in range(1, universe.max_len + 1):
        for combo in itertools.product(indices, repeat=length):
            yield Trace(tuple(variants[pos][idx] for pos, idx in enumerate(combo)))


def _positioned(universe: EventUniverse) -> list[tuple[Event, ...]]:
    """The alphabet at every position: ``[pos][i]`` has seq ``pos + 1``.

    Events are immutable, so each variant is built once, from the
    validated alphabet event's fields, and shared by every trace that uses
    it.
    """
    return [
        tuple(
            _trusted(e.kind, e.name, e.component, pos, e.synthetic, e.attrs)
            for e in universe.alphabet
        )
        for pos in range(1, universe.max_len + 1)
    ]


@dataclass
class Verdict:
    """Outcome of a bounded exhaustive verification run."""

    sound: bool
    transparent: bool
    sound_counterexamples: list[Trace] = field(default_factory=list)
    transparent_counterexamples: list[Trace] = field(default_factory=list)
    traces_checked: int = 0

    @property
    def ok(self) -> bool:
        return self.sound and self.transparent


def brute_force_verify(
    policy: PolicySpec,
    monitor: MonitorAutomaton,
    universe: EventUniverse,
    *,
    counterexample_limit: int = 10,
) -> Verdict:
    """Check soundness and transparency of a policy over a bounded universe.

    Sound: for every input trace, the enforced output has zero monitor
    violations. Transparent: every input the monitor already accepts is
    reproduced identically. The whole universe is always scanned; the first
    ``counterexample_limit`` failing inputs of each kind are kept, shortest
    first and then in the alphabet's declaration order, the order of
    :func:`enumerate_traces`. If some trace cannot be enforced, the
    :class:`EnforcementError` of the first such trace in that order is
    raised, as ``enforce_trace`` reports it.

    Enforcement is online, so the output for ``t + [e]`` is the output
    for ``t`` followed by one pipeline step on ``e``. The scan is a
    depth-first walk over the traces that restores the parent trace's
    saved state at each node: it costs one pipeline step per trace, plus
    monitor steps on the new input event and on the events it emitted.
    """
    registry = ModuleRegistry.from_policies([policy])
    module = registry.modules[0]
    positioned = _positioned(universe)
    max_len = universe.max_len
    # Failing traces of each kind as alphabet indices, keyed by the lengths
    # that fail; the walk meets the traces of one length in declaration order.
    unsound: dict[int, list[tuple[int, ...]]] = {}
    opaque: dict[int, list[tuple[int, ...]]] = {}
    traces_checked = 1
    failure: EnforcementError | None = None
    failure_len = max_len + 1
    path: list[int] = []  # alphabet indices of the current trace
    output: list[Event] = []  # its enforced output, not renumbered
    # The empty trace (counted above) enforces to itself and violates
    # nothing; its state is the fresh one every walk starts from.
    root = _Node((), {}, {}, 0, 0)
    children = range(len(universe.alphabet) - 1, -1, -1)  # popped in order
    stack = [(1, i, root) for i in children]
    while stack:
        depth, idx, parent = stack.pop()
        traces_checked += 1
        module._restore(parent.instances)
        event = positioned[depth - 1][idx]
        del path[depth - 1 :], output[parent.out_len :]
        path.append(idx)
        try:
            emitted = _enforce_input(registry, event, None)
        except EnforcementError as err:
            # Every extension fails the same way, later in the order.
            if depth < failure_len:
                failure, failure_len = err, depth
            continue
        output += emitted
        in_states, out_states, lcp = parent.in_states, parent.out_states, parent.lcp
        if out_states is not None:
            out_states = dict(out_states)
            if any(_step_monitor(monitor, out_states, e) for e in emitted):
                out_states = None
        if in_states is not None:
            in_states = dict(in_states)
            if _step_monitor(monitor, in_states, event):
                in_states = None
        if in_states is not None:
            # A mismatch inside the common length stays; otherwise one is
            # a prefix of the other and the prefix may grow.
            if lcp == min(parent.out_len, depth - 1):
                end = min(len(output), depth)
                while lcp < end and _same_but_seq(output[lcp], positioned[lcp][path[lcp]]):
                    lcp += 1
            if lcp != depth or len(output) != depth:
                _keep(opaque, path, counterexample_limit)
        if out_states is None:
            _keep(unsound, path, counterexample_limit)
        if depth < max_len and depth + 1 < failure_len:
            # The next node replaces these instances and copies the states,
            # so the node can hold them without copying.
            node = _Node(module._snapshot(), in_states, out_states, len(output), lcp)
            stack += [(depth + 1, i, node) for i in children]
    if failure is not None:
        raise failure

    def shortest_first(by_len: dict[int, list[tuple[int, ...]]]) -> list[Trace]:
        paths = [p for n in sorted(by_len) for p in by_len[n]][:counterexample_limit]
        return [Trace(tuple(positioned[n][i] for n, i in enumerate(p))) for p in paths]

    return Verdict(
        sound=not unsound,
        transparent=not opaque,
        sound_counterexamples=shortest_first(unsound),
        transparent_counterexamples=shortest_first(opaque),
        traces_checked=traces_checked,
    )


class _Node(NamedTuple):
    """What the walk saves of a trace for its extensions to restore.

    ``instances`` holds (key, state, bindings) of the policy's live
    instances; ``in_states`` and ``out_states`` are the monitor's instance
    states on the input and on the output so far, or None once that side
    has violated the monitor: a violation stays one in every extension,
    so that side is not stepped again. ``lcp`` is the length of the
    common prefix of input and output, ignoring seq.
    """

    instances: tuple[tuple[tuple[str, ...], str, dict[str, str]], ...]
    in_states: dict[tuple[str, ...], str] | None
    out_states: dict[tuple[str, ...], str] | None
    out_len: int
    lcp: int


def _keep(by_len: dict[int, list[tuple[int, ...]]], path: list[int], limit: int) -> None:
    """Mark the length of ``path`` failed; keep ``path`` while under ``limit``."""
    bucket = by_len.setdefault(len(path), [])
    if len(bucket) < limit:
        bucket.append(tuple(path))


def _same_but_seq(a: Event, b: Event) -> bool:
    return a is b or (
        a.kind is b.kind
        and a.name == b.name
        and a.component == b.component
        and a.synthetic == b.synthetic
        and a.attrs == b.attrs
    )
