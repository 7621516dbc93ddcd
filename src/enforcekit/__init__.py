"""Runtime policy enforcement for component lifecycles.

The toolkit intercepts an application's event stream (lifecycle callbacks
and API calls) and rewrites it through a stack of small edit automata, so
that resource-handling rules like "release the camera before pausing" hold
by construction. Policies and their checking counterparts (monitors) are
written in a compact text language; a brute-force verifier can then show,
up to a bound, that an enforced stream never violates the monitored
property while compliant streams pass through untouched.

A camera policy that releases the camera before a pause, applied to a
trace that pauses while holding it:

>>> from enforcekit import (
...     ModuleRegistry, enforce_trace, parse_policy, parse_trace, serialize_trace)
>>> policy = parse_policy('''
... policy CameraRelease
... instantiate per-component
... alphabet api Camera.open, api Camera.release, cb onPause
... initial FREE
... state FREE:
...   on api Camera.open -> HELD emit [$in]
... state HELD:
...   on api Camera.release -> FREE emit [$in]
...   on cb onPause -> FREE emit [api Camera.release, $in]
... end
... ''')
>>> trace = parse_trace('''
... 1 api:Camera.open@A1
... 2 cb:onPause@A1
... ''')
>>> registry = ModuleRegistry.from_policies([policy])
>>> enforced, report = enforce_trace(registry, trace)
>>> print(serialize_trace(enforced))
1 api:Camera.open@A1
2 !api:Camera.release@A1
3 cb:onPause@A1
>>> report.total.inserted
1
"""

from .dsl import (
    PolicyParseError,
    PolicySemanticError,
    parse_document,
    parse_monitor,
    parse_policy,
    serialize_monitor,
    serialize_policy,
)
from .enforcement import (
    EditRecord,
    EnforcementError,
    EnforcementReport,
    ModuleCounts,
    ModuleRegistry,
    ProactiveModule,
    UnknownModuleError,
    enforce_event,
    enforce_trace,
)
from .events import (
    Event,
    EventKind,
    LifecycleDiagnostic,
    LifecycleModel,
    Trace,
    TraceParseError,
    TraceValidationError,
    parse_event_literal,
    parse_trace,
    serialize_trace,
    validate_lifecycle,
)
from .oracle import (
    EventUniverse,
    Verdict,
    Violation,
    brute_force_verify,
    check,
    enumerate_traces,
    validate_monitor,
)
from .policy import (
    Binder,
    DefaultAction,
    Diagnostic,
    DispatchError,
    EventPattern,
    INPUT,
    Instancing,
    Literal,
    MonitorAutomaton,
    OutputTemplate,
    PASS,
    PolicySpec,
    Severity,
    SynthEvent,
    Transition,
    validate_policy,
)
from .simulator import (
    ApiCallStep,
    BUILTIN_RESOURCES,
    DeniedAcquire,
    LeakRecord,
    LeakReport,
    LifecycleStep,
    ResourceModel,
    Scenario,
    ScenarioError,
    ScenarioParseError,
    ToggleStep,
    UnknownLifecycleError,
    builtin_lifecycle,
    inactive_states,
    parse_scenario,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # events
    "Event",
    "EventKind",
    "Trace",
    "LifecycleModel",
    "LifecycleDiagnostic",
    "TraceParseError",
    "TraceValidationError",
    "parse_trace",
    "serialize_trace",
    "parse_event_literal",
    "validate_lifecycle",
    # policy model
    "PolicySpec",
    "EventPattern",
    "OutputTemplate",
    "Transition",
    "SynthEvent",
    "Literal",
    "Binder",
    "INPUT",
    "PASS",
    "DefaultAction",
    "Instancing",
    "Severity",
    "Diagnostic",
    "DispatchError",
    "validate_policy",
    # policy language
    "PolicyParseError",
    "PolicySemanticError",
    "parse_policy",
    "parse_monitor",
    "parse_document",
    "serialize_policy",
    "serialize_monitor",
    # enforcement
    "ModuleRegistry",
    "ProactiveModule",
    "ModuleCounts",
    "EditRecord",
    "EnforcementReport",
    "EnforcementError",
    "UnknownModuleError",
    "enforce_event",
    "enforce_trace",
    # checking and verification
    "MonitorAutomaton",
    "Violation",
    "EventUniverse",
    "Verdict",
    "check",
    "validate_monitor",
    "enumerate_traces",
    "brute_force_verify",
    # simulation
    "Scenario",
    "LifecycleStep",
    "ApiCallStep",
    "ToggleStep",
    "ResourceModel",
    "BUILTIN_RESOURCES",
    "LeakRecord",
    "DeniedAcquire",
    "LeakReport",
    "ScenarioError",
    "ScenarioParseError",
    "UnknownLifecycleError",
    "builtin_lifecycle",
    "inactive_states",
    "parse_scenario",
    "run_scenario",
]
