"""The policy enforcer: proactive modules and the event pipeline.

A registry holds proactive modules in the order given, the stack's order.
Each intercepted event flows through the active modules in that order; a
module may pass it, suppress it, or surround it with synthesized events.
Synthesized events flow only downstream (to later modules), never back
into the module that inserted them, and the total insertion depth is
bounded.

The modules' activation flags and instance tables are the only mutable
state in the toolkit; they are single-owner and not thread safe.
``ProactiveModule.step`` is the only code that routes an event to
instances and combines their outputs, ``ProactiveModule._add`` the only
one that creates an instance, ``AutomatonInstance.step`` the only writer
of its state and ``set_active`` the only writer of a flag. Every other
field of a module or a registry is frozen and slotted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .events import Event, EventKind, Trace, _Attrs, _frozen, _trusted
from .policy import (
    _ALLOW,
    _PER_BINDER,
    Binder,
    DispatchError,
    EventPattern,
    InputRef,
    InstanceKey,
    PolicySpec,
)

__all__ = [
    "EnforcementError",
    "UnknownModuleError",
    "AutomatonInstance",
    "ProactiveModule",
    "ModuleRegistry",
    "ModuleCounts",
    "EditRecord",
    "EnforcementReport",
    "enforce_event",
    "enforce_trace",
]

INSERT = "insert"
SUPPRESS = "suppress"
DEFAULT_DEPTH_LIMIT = 16


class EnforcementError(RuntimeError):
    """Enforcement could not proceed (e.g. insertion depth exceeded)."""

    def __init__(self, message: str, seq: int | None = None):
        super().__init__(message)
        self.seq = seq


class UnknownModuleError(LookupError):
    """A module name that is not present in the registry."""


@dataclass
class AutomatonInstance:
    """One live automaton: a policy instance at a key, in some state.

    ``bindings`` accumulates binder variable values from the events routed
    to this instance and from the patterns of the transitions it takes, so
    broadcast events (which carry no binder themselves) can still
    synthesize events that mention the bound value. The transition
    table is the policy's, built once for all its instances. Only
    :meth:`step` writes ``current``, once its output is built.
    """

    policy: PolicySpec
    key: tuple[str, ...]
    current: str
    bindings: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self._transition = self.policy.transition

    def step(self, event: Event) -> list[Event]:
        """Consume one event; advance state and return the emitted events.

        With no matching transition the automaton's default applies: allow
        emits the event unchanged, suppress emits nothing. The state is
        unchanged in either case.
        """
        chosen = self._transition(self.current, event)
        if chosen is None:
            if self.policy.default is _ALLOW:
                return [event]
            return []
        bound = chosen.pattern.binder()
        if bound is not None and bound[0] in event.attrs:
            self.bindings[bound[1]] = event.attrs[bound[0]]
        assert chosen.output is not None
        outputs = _instantiate_template(chosen.output.items, event, self.bindings)
        self.current = chosen.target
        return outputs


def _instantiate_template(
    items: Sequence, event: Event, bindings: dict[str, str]
) -> list[Event]:
    """The template's events for ``event``, built without validating again.

    Each item is an :class:`EventPattern`, whose constructor checked its
    name, keys and literals, and every binder value comes from the
    attributes of a validated event.
    """
    out: list[Event] = []
    for item in items:
        if isinstance(item, InputRef):
            out.append(event)
            continue
        attrs: dict[str, str] = {}
        for key, constraint in item.constraints:
            if isinstance(constraint, Binder):
                value = bindings.get(constraint.var)
                if value is None:
                    raise EnforcementError(
                        f"unbound binder '${constraint.var}' in synthesized "
                        f"event '{item.text()}'"
                    )
                attrs[key] = value
            else:
                attrs[key] = constraint.value
        out.append(
            _trusted(item.kind, item.name, event.component, event.seq, True, _Attrs(attrs))
        )
    return out


@_frozen
class ProactiveModule:
    """A policy wired into the pipeline with an activation flag.

    A module starts active; :meth:`ModuleRegistry.set_active` is the only
    writer of ``active``, and the other fields are frozen. Under
    per-binder instancing the module also indexes, per component and
    unordered, the keys of live instances in the policy's
    broadcast-reactive states, the only ones a broadcast visits;
    :meth:`PolicySpec.route` orders them. :meth:`_add` is the only code
    that creates an instance; it and :meth:`step`, on a change of state,
    write the index through :meth:`_index`. ``instances`` is a read-only
    view.
    """

    policy: PolicySpec
    active: bool = field(default=True, init=False)
    _instances: dict[InstanceKey, AutomatonInstance] = field(default_factory=dict, init=False)
    _keys_by_component: dict[str, dict[InstanceKey, None]] = field(
        default_factory=dict, init=False, repr=False
    )
    __eq__, __hash__ = object.__eq__, object.__hash__  # a run's state: equal only to itself

    @property
    def name(self) -> str:
        return self.policy.name

    @property
    def instances(self) -> Mapping[InstanceKey, AutomatonInstance]:
        """The live instances by key, read-only."""
        return MappingProxyType(self._instances)

    def alphabet_match(self, event: Event) -> EventPattern | None:
        """First alphabet pattern matching the event, or None."""
        return self.policy.match(event)

    def reset(self) -> None:
        """Forget every instance; fresh ones start at the initial state."""
        self._instances.clear()
        self._keys_by_component.clear()

    def step(self, event: Event, pattern: EventPattern) -> list[Event]:
        """Step the instances a matching event addresses; return the module's output.

        :meth:`PolicySpec.route` picks the keys from the indexed keys of the
        event's component, which are all a broadcast can change; a
        missing instance starts at the initial state, and a broadcast
        creates none. The output is every instance's pre-input insertions,
        then the input itself unless some instance suppressed it, then
        every post-input insertion; ``[event]`` means the module passed it.
        """
        live = self._keys_by_component.get(event.component, ())
        keys, bindings = self.policy.route(event, pattern, live)
        pre, post, suppressed = [], [], False
        for key in keys:
            instance = self._instances.get(key)
            if instance is None:
                instance = self._add(key, self.policy.initial, {})
            if bindings:
                instance.bindings.update(bindings)
            state = instance.current
            outputs = instance.step(event)
            if instance.current != state:
                self._index(key, instance.current)
            if len(outputs) == 1 and outputs[0] is event:
                continue  # passed unchanged
            for position, emitted in enumerate(outputs):
                if emitted is event:
                    pre.extend(outputs[:position])
                    post.extend(outputs[position + 1 :])
                    break
            else:
                suppressed = True
                pre.extend(outputs)
        return pre + post if suppressed else [*pre, event, *post]

    def _add(self, key: InstanceKey, state: str, bindings: dict[str, str]) -> AutomatonInstance:
        """Create the instance at ``key`` and index its key."""
        instance = self._instances[key] = AutomatonInstance(self.policy, key, state, bindings)
        self._index(key, state)
        return instance

    def _index(self, key: InstanceKey, state: str) -> None:
        """Index ``key`` if a broadcast can change its instance in ``state``."""
        if self.policy.instancing is _PER_BINDER:
            keys = self._keys_by_component.setdefault(key[0], {})
            if state in self.policy._broadcast_states:
                keys[key] = None
            else:
                keys.pop(key, None)

    def _snapshot(self) -> tuple[tuple[InstanceKey, str, dict[str, str]], ...]:
        """(key, state, bindings) of every live instance, for :meth:`_restore`.

        The bindings are the instances' own dicts: the caller must not
        step these instances again before it restores the snapshot.
        """
        return tuple((k, i.current, i.bindings) for k, i in self._instances.items())

    def _restore(self, saved: tuple[tuple[InstanceKey, str, dict[str, str]], ...]) -> None:
        """Replace every instance with fresh copies of the saved ones."""
        self.reset()
        for key, state, bindings in saved:
            self._add(key, state, dict(bindings))


@dataclass
class ModuleCounts:
    """Per-module event accounting."""

    inserted: int = 0
    suppressed: int = 0
    passed: int = 0


@_frozen
class EditRecord:
    """One edit performed during a run, attributed to an input seq."""

    seq: int
    module: str
    action: str  # INSERT or SUPPRESS
    event: str  # compact event literal

    def __str__(self) -> str:
        return f"seq={self.seq} module={self.module} action={self.action} event={self.event}"


@dataclass
class EnforcementReport:
    """What each module did during a run.

    Invariant: ``len(output) - len(input)`` always equals total inserted
    minus total suppressed.
    """

    counts: dict[str, ModuleCounts] = field(default_factory=dict)
    records: list[EditRecord] = field(default_factory=list)

    @staticmethod
    def for_registry(registry: "ModuleRegistry") -> "EnforcementReport":
        return EnforcementReport({m.name: ModuleCounts() for m in registry.modules})

    @property
    def total(self) -> ModuleCounts:
        out = ModuleCounts()
        for counts in self.counts.values():
            out.inserted += counts.inserted
            out.suppressed += counts.suppressed
            out.passed += counts.passed
        return out

    @property
    def delta(self) -> int:
        """Net change in trace length implied by the counters."""
        total = self.total
        return total.inserted - total.suppressed


@_frozen
class ModuleRegistry:
    """A stack of proactive modules, first to last, plus the insertion bound.

    The modules are fixed at construction, as a tuple in the order given,
    and indexed by the (kind, name) pairs of their alphabets: an event
    outside every alphabet then passes without visiting any module. Module
    names must be unique. The registry is frozen; ``set_active`` and
    ``reset`` change its modules.
    """

    modules: tuple[ProactiveModule, ...] = ()
    insert_depth_limit: int = DEFAULT_DEPTH_LIMIT
    _candidates: dict[tuple[EventKind, str], tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False
    )
    __eq__, __hash__ = object.__eq__, object.__hash__  # a run's state: equal only to itself

    def __post_init__(self):
        limit = self.insert_depth_limit
        if not isinstance(limit, int) or isinstance(limit, bool):
            raise TypeError(f"insert_depth_limit must be an int, got {limit!r}")
        if limit < 1:
            raise ValueError("insert_depth_limit must be a positive integer")
        object.__setattr__(self, "modules", tuple(self.modules))
        names = [m.name for m in self.modules]
        if len(set(names)) != len(names):
            raise ValueError("module names must be unique")
        candidates: dict[tuple[EventKind, str], list[int]] = {}
        for idx, module in enumerate(self.modules):
            for kind_name in dict.fromkeys((p.kind, p.name) for p in module.policy.alphabet):
                candidates.setdefault(kind_name, []).append(idx)
        object.__setattr__(self, "_candidates", {k: tuple(v) for k, v in candidates.items()})

    @classmethod
    def from_policies(
        cls, policies: Iterable[PolicySpec], *, insert_depth_limit: int = DEFAULT_DEPTH_LIMIT
    ) -> "ModuleRegistry":
        """Build a registry with one active module per policy, in the given order."""
        return cls(tuple(map(ProactiveModule, policies)), insert_depth_limit)

    def module(self, name: str) -> ProactiveModule:
        for module in self.modules:
            if module.name == name:
                return module
        raise UnknownModuleError(f"no module named {name!r} in the registry")

    def set_active(self, name: str, active: bool) -> None:
        """Flip a module's activation flag.

        Reactivating a module resets it: all instances are dropped, so fresh
        ones start at the initial state. A reactivated module has no memory
        of events it did not observe.
        """
        if not isinstance(active, bool):
            raise TypeError(f"'active' must be a bool, got {active!r}")
        module = self.module(name)
        if active and not module.active:
            module.reset()
        object.__setattr__(module, "active", active)

    def reset(self) -> None:
        """Drop all instances of all modules (activation flags are kept)."""
        for module in self.modules:
            module.reset()


def _account(report: EnforcementReport, name: str, event: Event, emitted: list[Event]) -> None:
    """Count and record one module's step on ``event`` from its emitted list."""
    counts = report.counts.get(name)
    if counts is None:
        counts = report.counts[name] = ModuleCounts()
    if len(emitted) == 1 and emitted[0] is event:
        counts.passed += 1
        return
    inserted = [e for e in emitted if e is not event]
    counts.inserted += len(inserted)
    if len(inserted) < len(emitted):
        counts.passed += 1
    else:
        counts.suppressed += 1
        report.records.append(EditRecord(event.seq, name, SUPPRESS, event.literal()))
    report.records += [EditRecord(event.seq, name, INSERT, e.literal()) for e in inserted]


def _dispatch(
    registry: ModuleRegistry,
    event: Event,
    start: int,
    chain: tuple[str, ...],
    report: EnforcementReport | None,
) -> list[Event]:
    """Run ``event`` through the active modules from index ``start`` on.

    An event's insertion depth is the number of modules in ``chain``, its
    insertion chain, which a depth error names. After an edit the input
    goes downstream with ``chain`` and each synthesized event with the
    editing module appended.
    """
    modules = registry.modules
    for idx in registry._candidates.get((event.kind, event.name), ()):
        module = modules[idx]
        if idx < start or not module.active:
            continue
        pattern = module.alphabet_match(event)
        if pattern is None:
            continue
        emitted = module.step(event, pattern)
        if report is not None:
            _account(report, module.name, event, emitted)
        if len(emitted) == 1 and emitted[0] is event:
            continue
        next_chain = chain + (module.name,)
        limit = registry.insert_depth_limit
        if emitted and len(chain) >= limit:  # an edit that keeps anything inserts
            raise EnforcementError(
                f"insertion depth limit {limit} exceeded "
                f"(module chain: {' -> '.join(next_chain)})",
                seq=event.seq,
            )
        if idx + 1 == len(modules):  # no module downstream to pass them to
            return emitted
        out: list[Event] = []
        for e in emitted:
            out += _dispatch(registry, e, idx + 1, chain if e is event else next_chain, report)
        return out
    return [event]


def enforce_event(
    registry: ModuleRegistry, event: Event, report: EnforcementReport | None = None
) -> list[Event]:
    """Run one event through the pipeline and return the emitted sequence.

    Events matching no active module pass through unchanged. Synthesized
    events are processed only by modules downstream of the inserting one,
    recursively, up to the registry's insertion depth limit.
    """
    return _dispatch(registry, event, 0, (), report)


def enforce_trace(
    registry: ModuleRegistry, trace: Trace
) -> tuple[Trace, EnforcementReport]:
    """Enforce a whole trace into a copy renumbered seq 1..n.

    ``enforcekit enforce`` writes the same lines in one pass, with no copy.
    Instances persist across the events of one call, so the registry carries
    history; for a fresh run use a fresh registry or ``registry.reset()``.
    Any failure on an input event, including one that cannot be routed to an
    instance (see :meth:`PolicySpec.route`), stops the run with an
    :class:`EnforcementError` whose message starts with that event's seq.
    """
    report = EnforcementReport.for_registry(registry)
    out: list[Event] = []
    for event in trace:
        out.extend(_enforce_input(registry, event, report))
    return Trace.renumbered(out), report


def _enforce_input(
    registry: ModuleRegistry, event: Event, report: EnforcementReport | None
) -> list[Event]:
    """:func:`enforce_event` for one event of an input trace.

    Any failure, including an event that cannot be routed (see
    :meth:`PolicySpec.route`), raises an :class:`EnforcementError`
    whose message starts with ``seq N: `` for the event's seq.
    """
    try:
        return _dispatch(registry, event, 0, (), report)
    except (DispatchError, EnforcementError) as err:
        raise EnforcementError(f"seq {event.seq}: {err}", seq=event.seq) from err
