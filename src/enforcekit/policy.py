"""Enforcement policies: event patterns, output templates, edit automata.

A policy describes a deterministic finite automaton whose transitions both
consume intercepted events and emit an output sequence: the event itself, a
replacement, nothing (suppression), or the event surrounded by synthesized
events (insertion). Instances of the automaton are keyed per policy: one
global instance, one per component, or one per bound attribute value.

Policies and monitors are the same keyed automaton, one with outputs and
one without; :class:`AutomatonCore` is the part they share: validation,
the alphabet and transition indexes, and routing to instance keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Union

from .events import Event, EventKind, _check_ident

__all__ = [
    "Severity",
    "Diagnostic",
    "Literal",
    "Binder",
    "Constraint",
    "EventPattern",
    "InputRef",
    "INPUT",
    "SynthEvent",
    "OutputTemplate",
    "Transition",
    "DefaultAction",
    "EditAutomaton",
    "Instancing",
    "PolicySpec",
    "DispatchError",
    "AutomatonCore",
    "patterns_overlap",
    "validate_policy",
]


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One finding from a validator; errors make a spec unusable."""

    severity: Severity
    message: str

    def __str__(self) -> str:
        return f"{self.severity.value}: {self.message}"


class DispatchError(ValueError):
    """An event matched a pattern but cannot be routed to an instance."""


@dataclass(frozen=True)
class Literal:
    """Attribute constraint: the attribute must equal this value."""

    value: str


@dataclass(frozen=True)
class Binder:
    """Attribute constraint that captures the attribute value as ``$var``."""

    var: str


Constraint = Union[Literal, Binder]


def _pattern_text(
    kind: EventKind, name: str, constraints: tuple[tuple[str, Constraint], ...]
) -> str:
    """Concrete syntax of a pattern or synthesized event, e.g.
    ``api registerService{service=$s}``."""
    body = f"{kind.value} {name}"
    if constraints:
        inner = ", ".join(
            f"{k}=${c.var}" if isinstance(c, Binder) else f"{k}={c.value}"
            for k, c in constraints
        )
        body += "{" + inner + "}"
    return body


def _normalize_constraints(
    constraints, what: str
) -> tuple[tuple[str, Constraint], ...]:
    items = tuple(sorted(constraints, key=lambda kv: kv[0]))
    seen: set[str] = set()
    binders = 0
    for key, constraint in items:
        _check_ident(key, f"{what} attribute key")
        if key in seen:
            raise ValueError(f"duplicate attribute key {key!r} in {what}")
        seen.add(key)
        if isinstance(constraint, Binder):
            _check_ident(constraint.var, "binder name")
            binders += 1
        elif isinstance(constraint, Literal):
            _check_ident(constraint.value, f"literal value for {key!r}")
        else:
            raise TypeError(f"bad constraint for {key!r}: {constraint!r}")
    if binders > 1:
        raise ValueError(f"at most one binder is allowed per {what}")
    return items


@dataclass(frozen=True)
class EventPattern:
    """Matches events by exact kind and name plus attribute constraints.

    A literal constraint requires the attribute to be present with that
    value. A binder constraint does not restrict matching; it names the
    attribute whose value keys per-binder instances and feeds templates.
    """

    kind: EventKind
    name: str
    constraints: tuple[tuple[str, Constraint], ...] = ()

    def __post_init__(self):
        _check_ident(self.name, "pattern name")
        object.__setattr__(
            self, "constraints", _normalize_constraints(self.constraints, "pattern")
        )

    def binder(self) -> tuple[str, str] | None:
        """The (attribute key, binder var) pair, if this pattern has one."""
        for key, constraint in self.constraints:
            if isinstance(constraint, Binder):
                return key, constraint.var
        return None

    def matches(self, event: Event) -> bool:
        if event.kind is not self.kind or event.name != self.name:
            return False
        for key, constraint in self.constraints:
            if isinstance(constraint, Literal):
                if event.attrs.get(key) != constraint.value:
                    return False
        return True

    def text(self) -> str:
        return _pattern_text(self.kind, self.name, self.constraints)


@dataclass(frozen=True)
class InputRef:
    """The ``$in`` placeholder: the intercepted event itself."""


INPUT = InputRef()


@dataclass(frozen=True)
class SynthEvent:
    """Template for an event inserted by a transition.

    The synthesized event inherits the component of the triggering input;
    attribute values come from literals or from binder variables in scope.
    """

    kind: EventKind
    name: str
    attrs: tuple[tuple[str, Constraint], ...] = ()

    def __post_init__(self):
        _check_ident(self.name, "synthesized event name")
        object.__setattr__(
            self, "attrs", _normalize_constraints(self.attrs, "synthesized event")
        )

    def text(self) -> str:
        return _pattern_text(self.kind, self.name, self.attrs)


TemplateItem = Union[InputRef, SynthEvent]


@dataclass(frozen=True)
class OutputTemplate:
    """Ordered output of a transition: synthesized events around ``$in``.

    An empty template suppresses the input; a template without ``$in`` but
    with synthesized events replaces it.
    """

    items: tuple[TemplateItem, ...] = ()

    def __post_init__(self):
        if not isinstance(self.items, tuple):
            object.__setattr__(self, "items", tuple(self.items))
        inputs = sum(1 for item in self.items if isinstance(item, InputRef))
        if inputs > 1:
            raise ValueError("the $in placeholder may appear at most once")

    @property
    def emits_input(self) -> bool:
        return any(isinstance(item, InputRef) for item in self.items)

    def text(self) -> str:
        rendered = [
            "$in" if isinstance(item, InputRef) else item.text() for item in self.items
        ]
        return "[" + ", ".join(rendered) + "]"


PASS = OutputTemplate((INPUT,))


@dataclass(frozen=True)
class Transition:
    """``source --pattern--> target`` with an output template.

    Monitor transitions carry no output (``output is None``).
    """

    source: str
    pattern: EventPattern
    target: str
    output: OutputTemplate | None = None


class DefaultAction(Enum):
    """Behavior for alphabet events with no matching transition."""

    ALLOW = "allow"
    SUPPRESS = "suppress"


def _normalize_transitions(
    states: tuple[str, ...], transitions
) -> tuple[Transition, ...]:
    """Stable-sort transitions by source state declaration order.

    This makes serialization (which groups transitions under their state
    block) a faithful round trip for programmatically built automata too.
    """
    order = {state: i for i, state in enumerate(states)}
    return tuple(
        sorted(transitions, key=lambda t: order.get(t.source, len(order)))
    )


def _check_states(states, initial: str, transitions) -> tuple[str, ...]:
    states = tuple(states)
    seen: set[str] = set()
    for state in states:
        _check_ident(state, "state name")
        if state in seen:
            raise ValueError(f"duplicate state {state}")
        seen.add(state)
    if initial not in seen:
        raise ValueError(f"unknown state {initial}")
    for t in transitions:
        if t.source not in seen:
            raise ValueError(f"unknown state {t.source}")
        if t.target not in seen:
            raise ValueError(f"unknown state {t.target}")
    return states


@dataclass(frozen=True)
class EditAutomaton:
    """Finite edit automaton: states, transitions with outputs, default."""

    states: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...] = ()
    default: DefaultAction = DefaultAction.ALLOW

    def __post_init__(self):
        transitions = tuple(self.transitions)
        states = _check_states(self.states, self.initial, transitions)
        for t in transitions:
            if t.output is None:
                raise ValueError(
                    f"transition {t.source} -> {t.target} is missing an output template"
                )
        object.__setattr__(self, "states", states)
        object.__setattr__(
            self, "transitions", _normalize_transitions(states, transitions)
        )


class Instancing(Enum):
    """How automaton instances are keyed."""

    SINGLETON = "singleton"
    PER_COMPONENT = "per-component"
    PER_BINDER = "per-binder"


InstanceKey = tuple[str, ...]


class AutomatonCore:
    """The keyed-automaton runtime that policies and monitors share.

    Built once per spec by :func:`_keyed_core`: the alphabet indexed by
    (kind, name), the transitions indexed by (state, kind, name), and the
    instancing that routes a matched event to instance keys. What a step
    does with the chosen transition stays with the caller: edit outputs
    and the default action for the enforcer, self-loops and absorbing
    error states for monitors.
    """

    __slots__ = ("initial", "instancing", "alphabet", "transitions")

    def __init__(
        self,
        initial: str,
        instancing: Instancing,
        alphabet: Iterable[EventPattern],
        transitions: tuple[Transition, ...],
    ):
        self.initial = initial
        self.instancing = instancing
        self.alphabet: dict[tuple[EventKind, str], list[EventPattern]] = {}
        for pattern in alphabet:
            self.alphabet.setdefault((pattern.kind, pattern.name), []).append(pattern)
        self.transitions = index_transitions(transitions)

    def match(self, event: Event) -> EventPattern | None:
        """First alphabet pattern matching the event, or None."""
        for pattern in self.alphabet.get((event.kind, event.name), ()):
            if pattern.matches(event):
                return pattern
        return None

    def transition(self, state: str, event: Event) -> Transition | None:
        """First transition out of ``state`` matching the event, or None."""
        for t in self.transitions.get((state, event.kind, event.name), ()):
            if t.pattern.matches(event):
                return t
        return None

    def route(
        self, event: Event, pattern: EventPattern, live: Iterable[InstanceKey]
    ) -> tuple[list[InstanceKey], dict[str, str]]:
        """Instance keys an event matching ``pattern`` addresses, and its binding.

        The key is ``()`` for singleton, ``(component,)`` for per-component
        and ``(component, value)`` for per-binder instancing, where value is
        the attribute the pattern's binder names. Under per-binder
        instancing a binder-free pattern broadcasts: it addresses the keys
        in ``live`` that belong to the event's component, in ascending
        order, and creates none. The binding maps the pattern's binder
        variable to the event's value, when the event carries one.

        Missing binder attribute: an event that matches a binder pattern
        under per-binder instancing but lacks the bound attribute cannot be
        keyed, and routing it raises :class:`DispatchError`. ``check``
        skips such an event, so a monitor stays total over any trace;
        ``enforce_trace`` fails with an ``EnforcementError`` that carries
        the event's seq.
        """
        bound = pattern.binder()
        bindings: dict[str, str] = {}
        if bound is not None:
            attr, var = bound
            value = event.attrs.get(attr)
            if value is not None:
                bindings[var] = value
            elif self.instancing is Instancing.PER_BINDER:
                raise DispatchError(
                    f"event {event.literal()} matches pattern '{pattern.text()}' "
                    f"but lacks binder attribute {attr!r}"
                )
        if self.instancing is Instancing.SINGLETON:
            return [()], bindings
        if self.instancing is Instancing.PER_COMPONENT:
            return [(event.component,)], bindings
        if bound is None:
            component = event.component
            return sorted(k for k in live if k[0] == component), bindings
        return [(event.component, value)], bindings


def _keyed_core(what: str, spec, automaton) -> AutomatonCore:
    """Check the rules policies and monitors share, then build their core.

    ``spec`` supplies the name, alphabet, instancing, binder attribute and
    statement; ``automaton`` the initial state and transitions, whose
    states its own constructor has checked with :func:`_check_states`.
    ``what`` names the document kind ("policy" or "monitor") in errors.
    """
    alphabet, instancing, binder_attr = spec.alphabet, spec.instancing, spec.binder_attr
    transitions = automaton.transitions
    _check_ident(spec.name, f"{what} name")
    if "\n" in spec.statement or "\r" in spec.statement:
        raise ValueError("statement must be a single line")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("duplicate alphabet pattern")
    for t in transitions:
        if t.pattern not in alphabet:
            raise ValueError(f"pattern '{t.pattern.text()}' is not in the alphabet")
    if instancing is Instancing.PER_BINDER:
        if not binder_attr:
            raise ValueError("per-binder instancing requires a binder attribute")
        binder_keys = {p.binder()[0] for p in alphabet if p.binder()}
        if not binder_keys:
            raise ValueError(
                "per-binder instancing requires at least one alphabet "
                "pattern with a binder"
            )
        stray = binder_keys - {binder_attr}
        if stray:
            raise ValueError(
                f"binder on attribute {sorted(stray)[0]!r} does not match "
                f"per-binder key {binder_attr!r}"
            )
    elif binder_attr is not None:
        raise ValueError("binder_attr is only meaningful with per-binder instancing")
    return AutomatonCore(automaton.initial, instancing, alphabet, transitions)


@dataclass(frozen=True)
class PolicySpec:
    """A named, instantiable enforcement policy.

    ``alphabet`` is the set of event patterns the policy observes; events
    matching no alphabet pattern pass through enforcement untouched. Every
    transition pattern must be one of the alphabet patterns. ``core`` is
    built once, here, and shared by every instance of the policy.
    """

    name: str
    automaton: EditAutomaton
    alphabet: tuple[EventPattern, ...] = ()
    instancing: Instancing = Instancing.SINGLETON
    binder_attr: str | None = None
    statement: str = ""
    core: AutomatonCore = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "core", _keyed_core("policy", self, self.automaton))


def patterns_overlap(a: EventPattern, b: EventPattern) -> bool:
    """True if some concrete event can match both patterns.

    Sound over-approximation: binders are treated as wildcards, so two
    patterns are disjoint only when they disagree on kind, name, or a
    literal constraint for a shared key.
    """
    if a.kind is not b.kind or a.name != b.name:
        return False
    lits_a = {k: c.value for k, c in a.constraints if isinstance(c, Literal)}
    lits_b = {k: c.value for k, c in b.constraints if isinstance(c, Literal)}
    return all(lits_a[k] == lits_b[k] for k in lits_a.keys() & lits_b.keys())


def _reachable(states, initial: str, transitions) -> set[str]:
    edges: dict[str, set[str]] = {s: set() for s in states}
    for t in transitions:
        edges[t.source].add(t.target)
    seen = {initial}
    stack = [initial]
    while stack:
        for nxt in edges[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def automaton_diagnostics(automaton) -> list[Diagnostic]:
    """Findings policies and monitors share, from states and transitions.

    ``automaton`` is an :class:`EditAutomaton` or a monitor. Errors: pairs
    of same-state transitions that can match the same event. Warnings:
    states unreachable from the initial state.
    """
    states, transitions = automaton.states, automaton.transitions
    out: list[Diagnostic] = []
    for state in states:
        outgoing = [t for t in transitions if t.source == state]
        for i, first in enumerate(outgoing):
            for second in outgoing[i + 1 :]:
                if patterns_overlap(first.pattern, second.pattern):
                    out.append(
                        Diagnostic(
                            Severity.ERROR,
                            f"state {state}: transitions on '{first.pattern.text()}' "
                            f"and '{second.pattern.text()}' can match the same event",
                        )
                    )
    reached = _reachable(states, automaton.initial, transitions)
    out += [
        Diagnostic(
            Severity.WARNING,
            f"state {state} is unreachable from initial state {automaton.initial}",
        )
        for state in states
        if state not in reached
    ]
    return out


def validate_policy(spec: PolicySpec) -> list[Diagnostic]:
    """Semantic diagnostics for a structurally valid policy.

    Errors: nondeterminism (two same-state transitions that can match one
    concrete event). Warnings: unreachable states, synthesized events
    outside the policy's own alphabet (they may target downstream modules),
    and suppressed lifecycle callbacks.
    """
    automaton = spec.automaton
    diagnostics = automaton_diagnostics(automaton)
    alphabet_names = spec.core.alphabet
    for t in automaton.transitions:
        assert t.output is not None
        for item in t.output.items:
            if isinstance(item, SynthEvent) and (item.kind, item.name) not in alphabet_names:
                diagnostics.append(
                    Diagnostic(
                        Severity.WARNING,
                        f"transition {t.source} -> {t.target} inserts "
                        f"'{item.text()}' outside the policy alphabet",
                    )
                )
        if t.pattern.kind is EventKind.CALLBACK and not t.output.emits_input:
            diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    f"transition {t.source} -> {t.target} suppresses lifecycle "
                    f"callback '{t.pattern.text()}'; suppressed callbacks can "
                    f"desynchronize the component lifecycle",
                )
            )
    return diagnostics


def index_transitions(
    transitions: tuple[Transition, ...]
) -> dict[tuple[str, EventKind, str], tuple[Transition, ...]]:
    """Group transitions by (source state, event kind, event name)."""
    table: dict[tuple[str, EventKind, str], list[Transition]] = {}
    for t in transitions:
        table.setdefault((t.source, t.pattern.kind, t.pattern.name), []).append(t)
    return {key: tuple(group) for key, group in table.items()}
