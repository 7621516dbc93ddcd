"""Independent checking of traces: safety monitors and brute-force search.

Monitors are plain acceptor automata, deliberately free of any edit or
output machinery, so they can serve as an oracle for the enforcement
pipeline: a monitor says whether a trace violates a property, and bounded
exhaustive enumeration over a concrete event universe establishes, up to
that bound, that enforcement output never violates the property (soundness)
and that compliant traces pass through untouched (transparency).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterator

from .enforcement import ModuleRegistry, enforce_trace
from .events import Event, Trace
from .policy import (
    AutomatonCore,
    Diagnostic,
    DispatchError,
    EventPattern,
    Instancing,
    PolicySpec,
    Transition,
    _check_states,
    _keyed_core,
    _normalize_transitions,
    automaton_diagnostics,
)

__all__ = [
    "MonitorAutomaton",
    "Violation",
    "EventUniverse",
    "Verdict",
    "check",
    "validate_monitor",
    "enumerate_traces",
    "brute_force_verify",
]


@dataclass(frozen=True)
class MonitorAutomaton:
    """Deterministic acceptor with absorbing error states.

    The monitor is total over its alphabet: an alphabet event with no
    matching transition self-loops. Events outside the alphabet are
    invisible. Instances are keyed exactly like policy instances: both
    build the same :class:`AutomatonCore`.
    """

    name: str
    states: tuple[str, ...]
    initial: str
    error_states: frozenset[str] = frozenset()
    transitions: tuple[Transition, ...] = ()
    alphabet: tuple[EventPattern, ...] = ()
    instancing: Instancing = Instancing.SINGLETON
    binder_attr: str | None = None
    statement: str = ""
    core: AutomatonCore = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        transitions = tuple(self.transitions)
        states = _check_states(self.states, self.initial, transitions)
        transitions = _normalize_transitions(states, transitions)
        error_states = frozenset(self.error_states)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "error_states", error_states)
        for state in error_states:
            if state not in states:
                raise ValueError(f"unknown state {state}")
        for t in transitions:
            if t.output is not None:
                raise ValueError("monitor transitions must not carry outputs")
            if t.source in error_states:
                raise ValueError(
                    f"error state {t.source} must not have outgoing transitions"
                )
        object.__setattr__(self, "core", _keyed_core("monitor", self, self))


@dataclass(frozen=True)
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

    The replay is deterministic and total: alphabet events with no matching
    transition self-loop, events outside the alphabet are ignored, and error
    states absorb. An event that cannot be keyed to an instance is skipped;
    :meth:`AutomatonCore.route` states that rule. Violations of a trace
    prefix are a prefix of the full trace's violations.
    """
    core = monitor.core
    errors = monitor.error_states
    states: dict[tuple[str, ...], str] = {}
    violations: list[Violation] = []
    for event in trace:
        pattern = core.match(event)
        if pattern is None:
            continue
        try:
            keys, _bindings = core.route(event, pattern, states)
        except DispatchError:
            continue
        for key in keys:
            current = states.setdefault(key, core.initial)
            if current in errors:
                continue
            t = core.transition(current, event)
            if t is not None:
                states[key] = t.target
                if t.target in errors:
                    violations.append(Violation(event.seq, key, t.target))
    return violations


@dataclass(frozen=True)
class EventUniverse:
    """A concrete alphabet of events plus a length bound for enumeration."""

    alphabet: tuple[Event, ...]
    max_len: int

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        if not self.alphabet:
            raise ValueError("the alphabet must be non-empty")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")
        if len(set(e.literal() for e in self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet events must be distinct")

    def size(self) -> int:
        """Number of traces of length 0..max_len over the alphabet."""
        base = len(self.alphabet)
        return sum(base**k for k in range(self.max_len + 1))


def enumerate_traces(universe: EventUniverse) -> Iterator[Trace]:
    """Yield every trace over the universe, shortest first.

    Traces of equal length come in lexicographic order of the alphabet's
    declaration order; events are renumbered seq 1..n. The stream is
    generated lazily, so memory stays constant regardless of the bound.
    """
    yield Trace(())
    # Events are immutable, so the seq-numbered variants can be built once
    # and shared by every trace that uses them.
    variants = [
        tuple(replace(e, seq=pos) for e in universe.alphabet)
        for pos in range(1, universe.max_len + 1)
    ]
    indices = range(len(universe.alphabet))
    for length in range(1, universe.max_len + 1):
        for combo in itertools.product(indices, repeat=length):
            yield Trace(tuple(variants[pos][idx] for pos, idx in enumerate(combo)))


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
    ``counterexample_limit`` failing inputs of each kind are kept.
    """
    registry = ModuleRegistry.from_policies([policy])
    verdict = Verdict(sound=True, transparent=True)
    for trace in enumerate_traces(universe):
        verdict.traces_checked += 1
        registry.reset()
        enforced, _report = enforce_trace(registry, trace)
        if check(enforced, monitor):
            verdict.sound = False
            if len(verdict.sound_counterexamples) < counterexample_limit:
                verdict.sound_counterexamples.append(trace)
        if enforced.events != trace.events and not check(trace, monitor):
            verdict.transparent = False
            if len(verdict.transparent_counterexamples) < counterexample_limit:
                verdict.transparent_counterexamples.append(trace)
    return verdict
