"""Scripted lifecycle scenarios with resource tracking and leak reports.

A scenario drives components through a lifecycle model and issues API
calls. The simulator tracks exclusive resources (who holds the camera,
which services a bundle registered, which timers are live) and reports a
leak whenever a component reaches a suspended or terminal state while still
holding something. Wiring in a module registry routes every generated event
through enforcement first, so inserted events really do release resources.

Each value is checked once, by the constructor of the type it becomes: an
``ApiCallStep`` checks its name and attributes, a :class:`Scenario` its
components and steps, and a ``LifecycleModel`` its callbacks.
:func:`parse_scenario` builds through these constructors and adds only the
line number, and :func:`run_scenario` builds step events without checking
the fields again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

from .enforcement import (
    EnforcementError,
    ModuleRegistry,
    UnknownModuleError,
    enforce_event,
)
from .events import (
    _IDENT_RE, _NO_ATTRS, Event, EventKind, LifecycleModel, Trace, _Attrs, _check_ident,
    _frozen, _trusted,
)
from .policy import DispatchError

# Bound once: a class-level enum member read is slow on CPython 3.11.
_API_CALL, _CALLBACK = EventKind.API_CALL, EventKind.CALLBACK

__all__ = [
    "UnknownLifecycleError",
    "ScenarioParseError",
    "ScenarioError",
    "LifecycleStep",
    "ApiCallStep",
    "ToggleStep",
    "Scenario",
    "ResourceModel",
    "BUILTIN_RESOURCES",
    "LeakRecord",
    "DeniedAcquire",
    "LeakReport",
    "builtin_lifecycle",
    "inactive_states",
    "parse_scenario",
    "run_scenario",
]


class UnknownLifecycleError(LookupError):
    """A lifecycle model name with no built-in definition."""


class ScenarioParseError(ValueError):
    """Malformed scenario file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ScenarioError(RuntimeError):
    """A scenario step that cannot be executed (carries the step number)."""

    def __init__(self, message: str, step: int):
        super().__init__(f"step {step}: {message}")
        self.step = step


# The built-in models, each with its curated inactive states: those in
# which holding an exclusive resource counts as a leak.
_INACTIVE_STATES = {
    # An initial pseudo-state precedes "created" so that onCreate is a real
    # transition and cannot fire twice in a row.
    LifecycleModel(
        name="activity",
        states=frozenset({"initial", "created", "resumed", "paused", "destroyed"}),
        initial="initial",
        transitions=frozenset(
            {
                ("initial", "onCreate", "created"),
                ("created", "onResume", "resumed"),
                ("resumed", "onPause", "paused"),
                ("paused", "onResume", "resumed"),
                ("paused", "onDestroy", "destroyed"),
            }
        ),
    ): frozenset({"paused", "destroyed"}),
    LifecycleModel(
        name="osgi-bundle",
        states=frozenset({"installed", "started", "stopped"}),
        initial="installed",
        transitions=frozenset(
            {
                ("installed", "start", "started"),
                ("started", "stop", "stopped"),
                ("stopped", "start", "started"),
            }
        ),
    ): frozenset({"stopped"}),
    LifecycleModel(
        name="react-component",
        states=frozenset({"unmounted", "mounted"}),
        initial="unmounted",
        transitions=frozenset(
            {
                ("unmounted", "componentDidMount", "mounted"),
                ("mounted", "componentWillUnmount", "unmounted"),
            }
        ),
    ): frozenset({"unmounted"}),
}
_BUILTIN_LIFECYCLES = {model.name: model for model in _INACTIVE_STATES}


def builtin_lifecycle(name: str) -> LifecycleModel:
    """Look up one of the built-in lifecycle models by name."""
    try:
        return _BUILTIN_LIFECYCLES[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTIN_LIFECYCLES))
        raise UnknownLifecycleError(
            f"unknown lifecycle model {name!r} (built-ins: {known})"
        ) from None


def inactive_states(model: LifecycleModel) -> frozenset[str]:
    """Suspended/terminal states of a model; leaks are checked on entry.

    A built-in model has a curated set; any other model, even one that
    shares a built-in's name, uses its terminal states (no outgoing
    transitions).
    """
    curated = _INACTIVE_STATES.get(model)
    if curated is not None:
        return curated
    sources = {source for source, _cb, _target in model.transitions}
    return frozenset(model.states - sources)


@_frozen
class LifecycleStep:
    component: str
    callback: str


@_frozen
class ApiCallStep:
    component: str
    name: str
    attrs: Mapping[str, str] = _NO_ATTRS  # kept as a read-only copy

    def __post_init__(self):
        _check_ident(self.name, "event name")
        if type(self.attrs) is not _Attrs:
            object.__setattr__(self, "attrs", _Attrs(self.attrs) if self.attrs else _NO_ATTRS)
        for key, value in self.attrs.items():
            _check_ident(key, "attribute key")
            _check_ident(value, f"attribute value for {key!r}")


@_frozen
class ToggleStep:
    module: str
    active: bool

    def __post_init__(self):
        if not isinstance(self.active, bool):
            raise TypeError(f"toggle 'active' must be a bool, got {self.active!r}")


Step = Union[LifecycleStep, ApiCallStep, ToggleStep]


@_frozen
class Scenario:
    """A named script: declared components plus an ordered step list."""

    name: str
    lifecycle: LifecycleModel
    components: tuple[str, ...]
    steps: tuple[Step, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "steps", tuple(self.steps))
        declared = set(self.components)
        if len(declared) != len(self.components):
            raise ValueError("duplicate component declaration")
        for component in self.components:
            _check_ident(component, "component")
        for step in self.steps:
            if isinstance(step, ToggleStep):
                continue
            if not isinstance(step, (ApiCallStep, LifecycleStep)):
                raise TypeError(f"not a scenario step: {step!r}")
            if step.component not in declared:
                raise ValueError(f"undeclared component {step.component!r}")


@_frozen
class ResourceModel:
    """An exclusive resource guarded by an acquire/release API pair.

    ``key_attr`` distinguishes instances of keyed resources (one per
    service id, one per timer id); unkeyed resources, like the camera, have
    a single instance. An acquire of a slot that is already held is
    denied, even for its holder.
    """

    name: str
    acquire: str
    release: str
    key_attr: str | None = None


BUILTIN_RESOURCES: tuple[ResourceModel, ...] = (
    ResourceModel(name="Camera", acquire="Camera.open", release="Camera.release"),
    ResourceModel(
        name="service", acquire="registerService", release="unregisterService",
        key_attr="service",
    ),
    ResourceModel(name="timer", acquire="setTimer", release="clearTimer", key_attr="timer"),
)


@_frozen
class LeakRecord:
    """A component entered an inactive state while holding a resource."""

    component: str
    state: str
    resource: str
    key: str | None
    seq: int

    def __str__(self) -> str:
        instance = f"{self.resource}[{self.key}]" if self.key else self.resource
        return (
            f"component={self.component} state={self.state} resource={instance} "
            f"at step seq {self.seq}"
        )


@_frozen
class DeniedAcquire:
    """An acquire attempt rejected because the resource was already held."""

    component: str
    resource: str
    key: str | None
    holder: str
    seq: int

    def __str__(self) -> str:
        instance = f"{self.resource}[{self.key}]" if self.key else self.resource
        return (
            f"component={self.component} resource={instance} held by {self.holder} "
            f"at seq {self.seq}"
        )


@dataclass
class LeakReport:
    leaks: list[LeakRecord] = field(default_factory=list)
    denied: list[DeniedAcquire] = field(default_factory=list)


def parse_scenario(text: str, *, default_name: str = "scenario") -> Scenario:
    """Parse the line-oriented scenario format.

    Directives: ``scenario <name>``, ``lifecycle <model>``,
    ``component <id>``, ``lc <component> <callback>``,
    ``call <component> <api-name> [k=v ...]`` and ``toggle <module> on|off``.
    ``scenario`` and ``lifecycle`` may each appear once, and components
    must be declared before use; blank lines and ``#`` comments are
    skipped. The step and scenario constructors check every value, and an
    error from them or from the format is raised with its line number.
    """
    name = default_name
    lifecycle: LifecycleModel | None = None
    components: dict[str, int] = {}  # component -> the line declaring it
    steps: list[Step] = []
    once: set[str] = set()

    def need(parts: list[str], count: int, usage: str) -> None:
        if len(parts) != count:
            raise ValueError(f"expected '{usage}'")

    def declared(component: str) -> str:
        if component not in components:
            raise ValueError(f"undeclared component {component!r}")
        return component

    def refuse_bad_component() -> None:
        # Scenario checks the components once, after the last line, so on
        # any error report a bad component first, at the line declaring it.
        try:
            Scenario(name, lifecycle, tuple(components))  # type: ignore[arg-type]
        except ValueError as err:
            lineno = next(n for c, n in components.items() if not _IDENT_RE.fullmatch(c))
            raise ScenarioParseError(str(err), lineno) from err

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        directive = parts[0]
        try:
            if directive in ("scenario", "lifecycle"):
                if directive in once:
                    raise ValueError(f"duplicate {directive!r} directive")
                once.add(directive)
            if directive == "scenario":
                need(parts, 2, "scenario <name>")
                name = parts[1]
            elif directive == "lifecycle":
                need(parts, 2, "lifecycle <model>")
                lifecycle = builtin_lifecycle(parts[1])
            elif directive == "component":
                need(parts, 2, "component <id>")
                if parts[1] in components:
                    raise ValueError(f"duplicate component {parts[1]!r}")
                components[parts[1]] = lineno
            elif directive == "lc":
                need(parts, 3, "lc <component> <callback>")
                steps.append(LifecycleStep(declared(parts[1]), parts[2]))
            elif directive == "call":
                if len(parts) < 3:
                    raise ValueError("expected 'call <component> <api-name> [k=v ...]'")
                component = declared(parts[1])
                attrs: dict[str, str] = {}
                for token in parts[3:]:
                    key, eq, value = token.partition("=")
                    if not eq or not key:
                        raise ValueError(f"expected attribute 'key=value', got {token!r}")
                    if key in attrs:
                        raise ValueError(f"duplicate attribute {key!r}")
                    attrs[key] = value
                steps.append(ApiCallStep(component, parts[2], attrs))
            elif directive == "toggle":
                need(parts, 3, "toggle <module> on|off")
                if parts[2] not in ("on", "off"):
                    raise ValueError(f"expected 'on' or 'off', got {parts[2]!r}")
                steps.append(ToggleStep(parts[1], parts[2] == "on"))
            else:
                raise ValueError(f"unknown directive {directive!r}")
        except (ValueError, UnknownLifecycleError) as err:
            refuse_bad_component()
            raise ScenarioParseError(str(err), lineno) from err
    if lifecycle is None:
        raise ScenarioParseError("missing 'lifecycle <model>' declaration", 1)
    try:
        return Scenario(name, lifecycle, tuple(components), tuple(steps))
    except ValueError:
        # Steps were built, and refused, at their own lines, so what is left
        # to refuse is a component.
        refuse_bad_component()
        raise


def run_scenario(
    scenario: Scenario,
    registry: ModuleRegistry | None = None,
    resources: tuple[ResourceModel, ...] = BUILTIN_RESOURCES,
) -> tuple[Trace, LeakReport]:
    """Execute a scenario and report resource leaks and denied acquires.

    Lifecycle steps must be enabled in the lifecycle model at execution
    time; the simulator refuses to emit an illegal callback sequence even
    for scenarios that misuse APIs. When a registry is given, every
    generated event runs through enforcement and the enforced output is
    what updates the resource state, so a synthesized release really frees
    the resource before the leak check fires. A step that cannot be
    executed or enforced raises :class:`ScenarioError` with its number.

    Like :func:`enforce_trace`, a run continues the registry's: instances
    and activation flags carry over, and a toggle outlives the call.
    """
    model = scenario.lifecycle
    inactive = inactive_states(model)
    lifecycle_state = {c: model.initial for c in scenario.components}
    # API name -> (resource, whether the call acquires); when a name is one
    # resource's acquire and another's release, the acquire wins.
    calls = {r.release: (r, False) for r in resources}
    calls.update({r.acquire: (r, True) for r in resources})
    holdings: dict[tuple[str, str | None], str] = {}  # (resource, key) -> holder
    report = LeakReport()
    emitted: list[Event] = []
    seq = 0
    for step_no, step in enumerate(scenario.steps, 1):
        if isinstance(step, ToggleStep):
            if registry is not None:
                try:
                    registry.set_active(step.module, step.active)
                except UnknownModuleError as err:
                    raise ScenarioError(str(err), step_no) from err
            continue
        seq += 1
        component = step.component
        if isinstance(step, LifecycleStep):
            current = lifecycle_state[component]
            target = model.target(current, step.callback)
            if target is None:
                raise ScenarioError(
                    f"{step.callback} not enabled in state {current} for component {component}",
                    step_no,
                )
            event = _trusted(_CALLBACK, step.callback, component, seq, False, _NO_ATTRS)
        else:
            target = None
            event = _trusted(_API_CALL, step.name, component, seq, False, step.attrs)
        if registry is None:
            outputs = [event]
        else:
            try:
                outputs = enforce_event(registry, event)
            except (EnforcementError, DispatchError) as err:
                raise ScenarioError(str(err), step_no) from err
        for out in outputs:
            call = calls.get(out.name) if out.kind is _API_CALL else None
            if call is None:
                continue
            resource, acquires = call
            key = None
            if resource.key_attr is not None:
                key = out.attrs.get(resource.key_attr)
                if key is None:
                    raise ScenarioError(
                        f"api call {out.name} lacks attribute {resource.key_attr!r}", step_no
                    )
            slot = (resource.name, key)
            holder = holdings.get(slot)
            if not acquires:
                if holder == out.component:
                    del holdings[slot]
            elif holder is not None:
                report.denied.append(DeniedAcquire(out.component, resource.name, key, holder, seq))
            else:
                holdings[slot] = out.component
        emitted.extend(outputs)
        if target is not None:
            lifecycle_state[component] = target
            if target in inactive:
                held = [slot for slot, holder in holdings.items() if holder == component]
                for name, key in sorted(held, key=lambda s: (s[0], s[1] or "")):
                    report.leaks.append(LeakRecord(component, target, name, key, seq))
    return Trace.renumbered(emitted), report
