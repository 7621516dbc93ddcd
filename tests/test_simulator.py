"""Scenario parsing and the lifecycle/resource simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from enforcekit import (
    BUILTIN_RESOURCES,
    ApiCallStep,
    DeniedAcquire,
    DispatchError,
    EnforcementError,
    Event,
    EventKind,
    EventPattern,
    LeakRecord,
    LeakReport,
    LifecycleModel,
    LifecycleStep,
    ModuleRegistry,
    OutputTemplate,
    PolicySpec,
    ResourceModel,
    Scenario,
    ScenarioError,
    ScenarioParseError,
    ToggleStep,
    Trace,
    Transition,
    UnknownLifecycleError,
    UnknownModuleError,
    builtin_lifecycle,
    enforce_event,
    inactive_states,
    parse_policy,
    parse_scenario,
    run_scenario,
    validate_lifecycle,
)
from enforcekit import simulator as simulator_module
from enforcekit.events import _Attrs

from conftest import CATALOG, CATALOG_POLICIES, SCENARIOS

CB = EventKind.CALLBACK


def _scenario(name: str) -> Scenario:
    return parse_scenario((SCENARIOS / name).read_text())


def _registry_for(policy_file: str) -> ModuleRegistry:
    policy = parse_policy((CATALOG / policy_file).read_text())
    return ModuleRegistry.from_policies([policy])


def _literals(trace: Trace) -> list[str]:
    return [e.literal() for e in trace]


class TestLifecycleModels:
    def test_activity_accepts_the_canonical_cycle(self):
        model = builtin_lifecycle("activity")
        trace = Trace.renumbered(
            Event.cb(cb, "A1")
            for cb in ("onCreate", "onResume", "onPause", "onResume", "onPause", "onDestroy")
        )
        assert validate_lifecycle(trace, model, "A1") == []

    def test_react_rejects_unmount_before_mount(self):
        model = builtin_lifecycle("react-component")
        trace = Trace.renumbered([Event.cb("componentWillUnmount", "C1")])
        (diag,) = validate_lifecycle(trace, model, "C1")
        assert diag.message == "componentWillUnmount not enabled in state unmounted"

    def test_unknown_model_lists_the_builtins(self):
        with pytest.raises(
            UnknownLifecycleError,
            match=r"unknown lifecycle model 'vulkan' "
            r"\(built-ins: activity, osgi-bundle, react-component\)",
        ):
            builtin_lifecycle("vulkan")

    @pytest.mark.parametrize(
        "name, states",
        [
            ("activity", {"paused", "destroyed"}),
            ("osgi-bundle", {"stopped"}),
            ("react-component", {"unmounted"}),
        ],
    )
    def test_curated_inactive_states(self, name, states):
        assert inactive_states(builtin_lifecycle(name)) == states

    def test_custom_models_fall_back_to_terminal_states(self):
        model = LifecycleModel(
            name="job",
            states=frozenset({"queued", "running", "done"}),
            initial="queued",
            transitions=frozenset(
                {("queued", "start", "running"), ("running", "finish", "done")}
            ),
        )
        assert inactive_states(model) == {"done"}

    def test_a_custom_model_with_a_builtin_name_uses_its_own_terminal_states(self):
        model = LifecycleModel("activity", frozenset({"a", "b"}), "a", frozenset({("a", "go", "b")}))
        assert inactive_states(model) == {"b"}
        steps = (ApiCallStep("A1", "Camera.open"), LifecycleStep("A1", "go"))
        _trace, report = run_scenario(Scenario("s", model, ("A1",), steps))
        assert report.leaks == [LeakRecord("A1", "b", "Camera", None, 2)]


class TestParseScenario:
    def test_full_directive_set(self):
        scenario = parse_scenario(
            "scenario demo\n"
            "lifecycle activity\n"
            "component A1  # the one that leaks\n"
            "\n"
            "lc A1 onCreate\n"
            "call A1 Camera.open\n"
            "call A1 setTimer timer=T1\n"
            "toggle CameraRelease off\n"
        )
        assert scenario.name == "demo"
        assert scenario.lifecycle.name == "activity"
        assert scenario.components == ("A1",)
        assert scenario.steps == (
            LifecycleStep("A1", "onCreate"),
            ApiCallStep("A1", "Camera.open", {}),
            ApiCallStep("A1", "setTimer", {"timer": "T1"}),
            ToggleStep("CameraRelease", False),
        )

    def test_name_defaults_when_not_declared(self):
        scenario = parse_scenario("lifecycle activity\n")
        assert scenario.name == "scenario"

    @pytest.mark.parametrize(
        "text, line, fragment",
        [
            ("lifecycle activity\nlc A1 onCreate\n", 2, "undeclared component 'A1'"),
            ("lifecycle activity\ncall A9 foo\n", 2, "undeclared component 'A9'"),
            ("lifecycle activity\ncomponent A1\ncomponent A1\n", 3, "duplicate component 'A1'"),
            ("lifecycle warp\n", 1, "unknown lifecycle model 'warp'"),
            ("component A1\n", 1, "missing 'lifecycle <model>' declaration"),
            ("lifecycle activity\nteleport A1\n", 2, "unknown directive 'teleport'"),
            ("lifecycle activity\ncomponent A1\ntoggle M sideways\n", 3, "expected 'on' or 'off'"),
            ("lifecycle activity\ncomponent A1\ncall A1 f x\n", 3, "expected attribute 'key=value'"),
            ("lifecycle activity\ncomponent A1\nlc A1\n", 3, "expected 'lc <component> <callback>'"),
            (
                "lifecycle activity\ncomponent A1\ncall A1 setTimer timer=t1 timer=t2\n",
                3,
                "duplicate attribute 'timer'",
            ),
            (
                "lifecycle activity\ncomponent A1\nlc A1 onCreate\nlifecycle react-component\n",
                4,
                "duplicate 'lifecycle' directive",
            ),
            ("scenario one\nlifecycle activity\nscenario two\n", 3, "duplicate 'scenario' directive"),
            (
                "lifecycle activity\ncomponent A!1\ncall A!1 Camera.open\ncall A!1 bad!\n",
                2,
                "component 'A!1' must be",
            ),
            (
                "lifecycle activity\ncomponent A!1\ncall A!1 Camera.open\nwarp\n",
                2,
                "component 'A!1' must be",
            ),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(text)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: ")
        assert fragment in str(exc.value)

    @pytest.mark.parametrize(
        "step, fragment",
        [
            ("component A!1", "component 'A!1' must be"),
            ("call A1 Camera!open", "event name 'Camera!open' must be"),
            ("call A1 Camera.open mode=fast!", "attribute value for 'mode' 'fast!' must be"),
            ("call A1 Camera.open mo$de=fast", "attribute key 'mo$de' must be"),
            ("call A1 Camera.open mode=", "attribute value for 'mode' '' must be"),
        ],
    )
    def test_bad_identifiers_are_parse_errors(self, step, fragment):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(f"lifecycle activity\ncomponent A1\n{step}\n")
        assert exc.value.line == 3
        assert fragment in str(exc.value)

    @pytest.mark.parametrize(
        "name, attrs, step",
        [
            pytest.param("Camera!open", {}, "call A1 Camera!open", id="name"),
            pytest.param("f", {"mo$de": "fast"}, "call A1 f mo$de=fast", id="key"),
            pytest.param("f", {"mode": "fast!"}, "call A1 f mode=fast!", id="value"),
        ],
    )
    def test_parsed_and_code_built_steps_fail_with_one_message(self, name, attrs, step):
        with pytest.raises(ValueError) as built:
            ApiCallStep("A1", name, attrs)
        with pytest.raises(ScenarioParseError) as parsed:
            parse_scenario(f"lifecycle activity\ncomponent A1\n{step}\n")
        assert str(parsed.value) == "line 3: " + str(built.value)

    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.scn")))
    def test_each_value_of_a_shipped_scenario_is_checked_once(self, name, monkeypatch):
        calls = []
        real = simulator_module._check_ident

        def counted(value, what):
            calls.append(value)
            real(value, what)

        monkeypatch.setattr(simulator_module, "_check_ident", counted)
        scenario = _scenario(name)
        api_calls = [s for s in scenario.steps if isinstance(s, ApiCallStep)]
        expected = len(scenario.components) + sum(1 + 2 * len(s.attrs) for s in api_calls)
        assert api_calls and len(calls) == expected

    @pytest.mark.parametrize(
        "name",
        [
            "plumeria-leak.scn",
            "plumeria-compliant.scn",
            "osgi-stop-leak.scn",
            "osgi-stop-compliant.scn",
            "react-timer-leak.scn",
            "react-timer-compliant.scn",
        ],
    )
    def test_shipped_scenarios_parse(self, name):
        scenario = _scenario(name)
        assert scenario.name == name.removesuffix(".scn")
        assert scenario.steps


class TestRunScenario:
    def test_camera_leak_baseline(self):
        trace, report = run_scenario(_scenario("plumeria-leak.scn"))
        assert report.leaks == [LeakRecord("A1", "paused", "Camera", None, 6)]
        assert report.denied == [DeniedAcquire("A2", "Camera", None, "A1", 7)]
        assert str(report.leaks[0]) == (
            "component=A1 state=paused resource=Camera at step seq 6"
        )
        assert str(report.denied[0]) == (
            "component=A2 resource=Camera held by A1 at seq 7"
        )
        assert _literals(trace) == [
            "cb:onCreate@A1",
            "cb:onResume@A1",
            "api:Camera.open@A1",
            "cb:onCreate@A2",
            "cb:onResume@A2",
            "cb:onPause@A1",
            "api:Camera.open@A2",
        ]

    def test_camera_leak_enforced(self):
        registry = _registry_for("camera_release.policy")
        trace, report = run_scenario(_scenario("plumeria-leak.scn"), registry)
        assert report.leaks == []
        assert report.denied == []
        literals = _literals(trace)
        assert literals.count("!api:Camera.release@A1") == 1
        release_at = literals.index("!api:Camera.release@A1")
        assert literals[release_at + 1] == "cb:onPause@A1"

    def test_compliant_scenario_is_untouched_by_enforcement(self):
        baseline, base_report = run_scenario(_scenario("plumeria-compliant.scn"))
        registry = _registry_for("camera_release.policy")
        enforced, enf_report = run_scenario(_scenario("plumeria-compliant.scn"), registry)
        assert enforced.events == baseline.events
        assert base_report.leaks == enf_report.leaks == []
        assert base_report.denied == enf_report.denied == []

    def test_bundle_stop_leaks_one_record_per_service(self):
        _, report = run_scenario(_scenario("osgi-stop-leak.scn"))
        assert report.leaks == [
            LeakRecord("B1", "stopped", "service", "S1", 4),
            LeakRecord("B1", "stopped", "service", "S2", 4),
        ]
        assert str(report.leaks[0]) == (
            "component=B1 state=stopped resource=service[S1] at step seq 4"
        )

    def test_leaks_come_in_resource_then_key_order(self):
        text = (
            "lifecycle osgi-bundle\ncomponent B1\nlc B1 start\n"
            "call B1 registerService service=S2\ncall B1 setTimer timer=T1\n"
            "call B1 registerService service=S1\nlc B1 stop\n"
        )
        _, report = run_scenario(parse_scenario(text))
        assert [(leak.resource, leak.key) for leak in report.leaks] == [
            ("service", "S1"),
            ("service", "S2"),
            ("timer", "T1"),
        ]

    def test_bundle_stop_enforced_releases_both_services(self):
        registry = _registry_for("osgi_unregister.policy")
        trace, report = run_scenario(_scenario("osgi-stop-leak.scn"), registry)
        assert report.leaks == []
        assert _literals(trace)[-3:] == [
            "!api:unregisterService@B1{service=S1}",
            "!api:unregisterService@B1{service=S2}",
            "cb:stop@B1",
        ]

    def test_timer_leak_and_its_repair(self):
        _, baseline = run_scenario(_scenario("react-timer-leak.scn"))
        assert baseline.leaks == [LeakRecord("C1", "unmounted", "timer", "T1", 3)]
        registry = _registry_for("react_cleanup.policy")
        trace, enforced = run_scenario(_scenario("react-timer-leak.scn"), registry)
        assert enforced.leaks == []
        assert _literals(trace)[-2:] == [
            "!api:clearTimer@C1{timer=T1}",
            "cb:componentWillUnmount@C1",
        ]

    def test_illegal_callback_is_refused_with_the_step_number(self):
        scenario = parse_scenario(
            "lifecycle activity\ncomponent A1\nlc A1 onResume\n"
        )
        with pytest.raises(ScenarioError) as exc:
            run_scenario(scenario)
        assert exc.value.step == 1
        assert str(exc.value) == (
            "step 1: onResume not enabled in state initial for component A1"
        )

    def test_non_identifier_callback_is_refused_as_not_enabled(self):
        # Refused before any event is built from it, like any illegal callback.
        scenario = parse_scenario("lifecycle activity\ncomponent A1\nlc A1 on/Create\n")
        with pytest.raises(ScenarioError) as exc:
            run_scenario(scenario)
        assert str(exc.value) == "step 1: on/Create not enabled in state initial for component A1"

    def test_toggle_is_ignored_without_a_registry(self):
        scenario = parse_scenario(
            "lifecycle activity\ncomponent A1\n"
            "toggle CameraRelease off\nlc A1 onCreate\n"
        )
        trace, _ = run_scenario(scenario)
        assert _literals(trace) == ["cb:onCreate@A1"]
        assert [e.seq for e in trace] == [1]

    def test_toggle_unknown_module_reports_the_step(self):
        scenario = parse_scenario(
            "lifecycle activity\ncomponent A1\ntoggle Ghost off\n"
        )
        with pytest.raises(ScenarioError) as exc:
            run_scenario(scenario, _registry_for("camera_release.policy"))
        assert exc.value.step == 1
        assert "no module named 'Ghost'" in str(exc.value)

    def test_toggled_off_module_stops_repairing(self):
        text = (
            "lifecycle activity\ncomponent A1\n"
            "toggle CameraRelease off\n"
            "lc A1 onCreate\nlc A1 onResume\n"
            "call A1 Camera.open\nlc A1 onPause\n"
        )
        registry = _registry_for("camera_release.policy")
        trace, report = run_scenario(parse_scenario(text), registry)
        assert "!api:Camera.release@A1" not in _literals(trace)
        assert len(report.leaks) == 1

    def test_exclusive_acquire_is_denied_even_for_the_holder(self):
        text = (
            "lifecycle activity\ncomponent A1\n"
            "lc A1 onCreate\ncall A1 Camera.open\ncall A1 Camera.open\n"
        )
        _, report = run_scenario(parse_scenario(text))
        assert report.denied == [DeniedAcquire("A1", "Camera", None, "A1", 3)]

    def test_keyed_slots_are_independent(self):
        text = (
            "lifecycle osgi-bundle\ncomponent B1\ncomponent B2\n"
            "lc B1 start\nlc B2 start\n"
            "call B1 registerService service=S1\n"
            "call B2 registerService service=S2\n"
            "call B2 registerService service=S1\n"
        )
        _, report = run_scenario(parse_scenario(text))
        assert report.denied == [DeniedAcquire("B2", "service", "S1", "B1", 5)]

    def test_release_by_a_non_holder_does_not_free_the_slot(self):
        text = (
            "lifecycle react-component\ncomponent C1\ncomponent C2\n"
            "lc C1 componentDidMount\ncall C1 setTimer timer=T1\n"
            "lc C2 componentDidMount\ncall C2 clearTimer timer=T1\n"
            "lc C1 componentWillUnmount\n"
        )
        _, report = run_scenario(parse_scenario(text))
        assert report.leaks == [LeakRecord("C1", "unmounted", "timer", "T1", 5)]

    def test_resources_argument_replaces_the_builtins(self):
        text = (
            "lifecycle activity\ncomponent A1\ncomponent A2\n"
            "lc A1 onCreate\nlc A1 onResume\ncall A1 acquireWakeLock\n"
            "call A2 acquireWakeLock\ncall A2 releaseWakeLock\nlc A1 onPause\n"
        )
        wake_lock = ResourceModel("WakeLock", "acquireWakeLock", "releaseWakeLock")
        _, report = run_scenario(parse_scenario(text), resources=(wake_lock,))
        assert report.leaks == [LeakRecord("A1", "paused", "WakeLock", None, 6)]
        assert report.denied == [DeniedAcquire("A2", "WakeLock", None, "A1", 4)]
        _, builtin = run_scenario(parse_scenario(text))
        assert builtin == LeakReport()

    def test_a_run_continues_the_registry_of_the_last(self):
        registry = _registry_for("camera_release.policy")
        opened = "lifecycle activity\ncomponent A1\nlc A1 onCreate\ncall A1 Camera.open\n"
        run_scenario(parse_scenario(opened), registry)
        # The instance that saw the open carries over, so this A1's pause,
        # with no open of its own, still gets a release.
        paused = "lifecycle activity\ncomponent A1\nlc A1 onCreate\nlc A1 onResume\nlc A1 onPause\n"
        trace, _ = run_scenario(parse_scenario(paused), registry)
        assert "!api:Camera.release@A1" in _literals(trace)
        # A toggle outlives its run, until the module is set active again.
        run_scenario(parse_scenario("lifecycle activity\ntoggle CameraRelease off\n"), registry)
        _, report = run_scenario(_scenario("plumeria-leak.scn"), registry)
        assert (len(report.leaks), len(report.denied)) == (1, 1)
        registry.set_active("CameraRelease", True)
        _, report = run_scenario(_scenario("plumeria-leak.scn"), registry)
        assert report == LeakReport()

    def test_keyed_api_call_without_its_key_attribute(self):
        text = (
            "lifecycle react-component\ncomponent C1\n"
            "lc C1 componentDidMount\ncall C1 setTimer\nlc C1 componentDidMount\n"
        )
        with pytest.raises(ScenarioError) as exc:  # the first faulty step, not the later one
            run_scenario(parse_scenario(text))
        assert str(exc.value) == "step 2: api call setTimer lacks attribute 'timer'"

    def test_unroutable_event_reports_the_step(self):
        text = "lifecycle osgi-bundle\ncomponent B1\nlc B1 start\ncall B1 registerService\n"
        with pytest.raises(ScenarioError) as exc:
            run_scenario(parse_scenario(text), _registry_for("osgi_unregister.policy"))
        assert exc.value.step == 2
        assert str(exc.value).startswith(
            "step 2: event api:registerService@B1 matches pattern"
        )

    def test_platform_state_advances_even_if_the_callback_is_suppressed(self):
        pause = EventPattern(CB, "onPause")
        gag = PolicySpec(
            "Gag",
            ("S",),
            "S",
            (Transition("S", pause, "S", OutputTemplate(())),),
            alphabet=(pause,),
        )
        text = (
            "lifecycle activity\ncomponent A1\n"
            "lc A1 onCreate\nlc A1 onResume\n"
            "call A1 Camera.open\nlc A1 onPause\n"
        )
        trace, report = run_scenario(
            parse_scenario(text), ModuleRegistry.from_policies([gag])
        )
        # The pause never reaches the emitted trace, but the platform still
        # pauses the component, so the held camera is reported as a leak.
        assert "cb:onPause@A1" not in _literals(trace)
        assert len(report.leaks) == 1


_PAIRINGS = [
    ("plumeria-leak.scn", "camera_release.policy"),
    ("plumeria-compliant.scn", "camera_release.policy"),
    ("osgi-stop-leak.scn", "osgi_unregister.policy"),
    ("osgi-stop-compliant.scn", "osgi_unregister.policy"),
    ("react-timer-leak.scn", "react_cleanup.policy"),
    ("react-timer-compliant.scn", "react_cleanup.policy"),
]


@pytest.mark.parametrize("scenario_file, policy_file", _PAIRINGS)
@pytest.mark.parametrize("enforced", [False, True], ids=["baseline", "enforced"])
def test_emitted_traces_respect_the_lifecycle_model(scenario_file, policy_file, enforced):
    """Neither run mode may emit a callback the platform could not produce."""
    scenario = _scenario(scenario_file)
    registry = _registry_for(policy_file) if enforced else None
    trace, _ = run_scenario(scenario, registry)
    for component in scenario.components:
        assert validate_lifecycle(trace, scenario.lifecycle, component) == []


@pytest.mark.parametrize("scenario_file, policy_file", _PAIRINGS)
def test_enforcement_never_leaves_leaks_in_shipped_scenarios(scenario_file, policy_file):
    _, report = run_scenario(_scenario(scenario_file), _registry_for(policy_file))
    assert report.leaks == []


# --- steps are checked where they enter --------------------------------


@pytest.mark.parametrize(
    "build, fragment, error",
    [
        pytest.param(
            lambda: Scenario(
                "s", builtin_lifecycle("activity"), ("A1",), (ApiCallStep("A1", "bad name"),)
            ),
            "event name 'bad name' must be",
            ValueError,
            id="api-name",
        ),
        pytest.param(
            lambda: Scenario(
                "s", builtin_lifecycle("activity"), ("A1",), (ApiCallStep("A1", "f", {"k": "v!"}),)
            ),
            "attribute value for 'k' 'v!' must be",
            ValueError,
            id="attribute-value",
        ),
        # With thirty bad strings a hash-ordered check would seldom report
        # the first, so these fail unless the first in step order is reported.
        pytest.param(
            lambda: Scenario(
                "s", builtin_lifecycle("activity"), ("A1",),
                [ApiCallStep("A1", f"bad {i}") for i in range(30)],
            ),
            "event name 'bad 0'",
            ValueError,
            id="first-bad-name",
        ),
        pytest.param(
            lambda: Scenario(
                "s", builtin_lifecycle("activity"), ("A1",),
                [ApiCallStep("A1", "f", {"k": f"bad {i}"}) for i in range(30)],
            ),
            "for 'k' 'bad 0'",
            ValueError,
            id="first-bad-attribute-value",
        ),
        pytest.param(
            lambda: Scenario("s", builtin_lifecycle("activity"), ("A 1",)),
            "component 'A 1' must be",
            ValueError,
            id="component",
        ),
        pytest.param(
            lambda: LifecycleModel("job", {"idle", "busy"}, "idle", {("idle", "on go", "busy")}),
            "callback 'on go' must be",
            ValueError,
            id="lifecycle-callback",
        ),
        pytest.param(
            lambda: LifecycleModel("job", {"idle"}, "busy", set()),
            "initial state 'busy' not in states",
            ValueError,
            id="lifecycle-initial",
        ),
        pytest.param(
            lambda: LifecycleModel("job", {"idle"}, "idle", {("idle", "go", "busy")}),
            r"transition \(idle, go, busy\) leaves declared states",
            ValueError,
            id="lifecycle-target",
        ),
        pytest.param(
            lambda: LifecycleModel(
                "job", {"idle", "busy"}, "idle", {("idle", "go", "busy"), ("idle", "go", "idle")}
            ),
            "nondeterministic lifecycle: two transitions from 'idle' on 'go'",
            ValueError,
            id="lifecycle-nondeterministic",
        ),
        pytest.param(
            lambda: Scenario("s", builtin_lifecycle("activity"), ("A1", "A1")),
            "duplicate component declaration",
            ValueError,
            id="duplicate-component",
        ),
        pytest.param(
            lambda: Scenario(
                "s", builtin_lifecycle("activity"), ("A1",), (LifecycleStep("A2", "onCreate"),)
            ),
            "undeclared component 'A2'",
            ValueError,
            id="undeclared-component",
        ),
        pytest.param(
            lambda: ToggleStep("CameraRelease", "off"),
            "must be a bool, got 'off'",
            TypeError,
            id="toggle-active-text",
        ),
        pytest.param(
            lambda: ToggleStep("CameraRelease", 1),
            "must be a bool, got 1",
            TypeError,
            id="toggle-active-int",
        ),
    ],
)
def test_code_built_scenarios_refuse_bad_identifiers_at_construction(build, fragment, error):
    # run_scenario trusts what construction accepted, so a bad value must
    # fail here, not mid-run with a bare ValueError or by being truthy.
    with pytest.raises(error, match=fragment):
        build()


def test_scenario_keeps_tuples_and_refuses_foreign_steps():
    steps = [LifecycleStep("A1", "onCreate")]
    scenario = Scenario("s", builtin_lifecycle("activity"), ["A1"], steps)
    steps.append(LifecycleStep("A1", "onResume"))
    assert scenario.components == ("A1",)
    assert scenario.steps == (LifecycleStep("A1", "onCreate"),)
    with pytest.raises(TypeError, match="not a scenario step"):
        Scenario("s", builtin_lifecycle("activity"), ("A1",), (("A1", "onCreate"),))


def test_api_call_steps_keep_read_only_attrs():
    attrs = {"timer": "T1"}
    step = ApiCallStep("C1", "setTimer", attrs)
    attrs["timer"] = "T2"
    assert step.attrs == {"timer": "T1"}
    with pytest.raises(TypeError):
        step.attrs["timer"] = "T3"
    assert type(ApiCallStep("C1", "f").attrs) is _Attrs
    assert ApiCallStep("C1", "f").attrs is ApiCallStep("C1", "g", {}).attrs


# --- the trusted run against the validated one -------------------------


class _ResourceState:
    """Holder bookkeeping for one run: (resource, key) -> component."""

    def __init__(self, resources: tuple[ResourceModel, ...]):
        self.by_acquire = {r.acquire: r for r in resources}
        self.by_release = {r.release: r for r in resources}
        self.holdings: dict[tuple[str, str | None], str] = {}

    def _slot(
        self, resource: ResourceModel, event: Event, step_no: int
    ) -> tuple[str, str | None]:
        if resource.key_attr is None:
            return (resource.name, None)
        key = event.attrs.get(resource.key_attr)
        if key is None:
            raise ScenarioError(
                f"api call {event.name} lacks attribute {resource.key_attr!r}",
                step_no,
            )
        return (resource.name, key)

    def apply(
        self, event: Event, step_no: int, seq: int, denied: list[DeniedAcquire]
    ) -> None:
        """Update holdings for one (possibly synthesized) emitted event."""
        if event.kind is not EventKind.API_CALL:
            return
        resource = self.by_acquire.get(event.name)
        if resource is not None:
            slot = self._slot(resource, event, step_no)
            holder = self.holdings.get(slot)
            if holder is not None:
                denied.append(
                    DeniedAcquire(event.component, slot[0], slot[1], holder, seq)
                )
            else:
                self.holdings[slot] = event.component
            return
        resource = self.by_release.get(event.name)
        if resource is not None:
            slot = self._slot(resource, event, step_no)
            if self.holdings.get(slot) == event.component:
                del self.holdings[slot]

    def held_by(self, component: str) -> list[tuple[str, str | None]]:
        slots = [s for s, holder in self.holdings.items() if holder == component]
        return sorted(slots, key=lambda s: (s[0], s[1] or ""))


def reference_run_scenario(scenario, registry=None, resources=BUILTIN_RESOURCES):
    """The per-step loop of run_scenario, with every step event built, and
    every emitted event renumbered, through the validating ``Event``
    constructor instead of trusted copies, and with its own holder
    bookkeeping, so that a fault in the simulator's cannot pass unseen.
    """
    model = scenario.lifecycle
    inactive = inactive_states(model)
    lifecycle_state = {c: model.initial for c in scenario.components}
    state = _ResourceState(resources)
    report = LeakReport()
    emitted = []
    seq = 0

    def process(event, step_no):
        if registry is None:
            outputs = [event]
        else:
            try:
                outputs = enforce_event(registry, event)
            except (EnforcementError, DispatchError) as err:
                raise ScenarioError(str(err), step_no) from err
        for out in outputs:
            state.apply(out, step_no, seq, report.denied)
        emitted.extend(outputs)

    for step_no, step in enumerate(scenario.steps, 1):
        if isinstance(step, ToggleStep):
            if registry is None:
                continue
            try:
                registry.set_active(step.module, step.active)
            except UnknownModuleError as err:
                raise ScenarioError(str(err), step_no) from err
            continue
        seq += 1
        if isinstance(step, LifecycleStep):
            current = lifecycle_state[step.component]
            target = model.target(current, step.callback)
            if target is None:
                raise ScenarioError(
                    f"{step.callback} not enabled in state {current} "
                    f"for component {step.component}",
                    step_no,
                )
            process(Event(EventKind.CALLBACK, step.callback, step.component, seq), step_no)
            lifecycle_state[step.component] = target
            if target in inactive:
                for resource, key in state.held_by(step.component):
                    report.leaks.append(LeakRecord(step.component, target, resource, key, seq))
        else:
            process(
                Event(EventKind.API_CALL, step.name, step.component, seq, attrs=dict(step.attrs)),
                step_no,
            )
    validated = (
        Event(e.kind, e.name, e.component, i, e.synthetic, dict(e.attrs))
        for i, e in enumerate(emitted, 1)
    )
    return Trace(tuple(validated)), report


_CATALOG_SPECS = [parse_policy((CATALOG / name).read_text()) for name in CATALOG_POLICIES]


def _outcome(run, scenario, enforced, resources=BUILTIN_RESOURCES):
    """What a run gives: its trace and report, or its error's text and step."""
    registry = ModuleRegistry.from_policies(_CATALOG_SPECS) if enforced else None
    try:
        return run(scenario, registry, resources)
    except ScenarioError as err:
        return str(err), err.step


def _assert_like_validated_events(trace):
    for event in trace:
        validated = Event(
            event.kind, event.name, event.component, event.seq, event.synthetic, dict(event.attrs)
        )
        assert event == validated and hash(event) == hash(validated)
        assert type(event.attrs) is _Attrs
        with pytest.raises(TypeError):
            event.attrs["k"] = "v"


@pytest.mark.parametrize("scenario_file", [pair[0] for pair in _PAIRINGS])
@pytest.mark.parametrize("enforced", [False, True], ids=["baseline", "all-catalog"])
def test_trusted_run_matches_the_validated_reference_on_shipped_scenarios(
    scenario_file, enforced
):
    scenario = _scenario(scenario_file)
    outcome = _outcome(run_scenario, scenario, enforced)
    assert outcome == _outcome(reference_run_scenario, scenario, enforced)
    trace, _report = outcome
    _assert_like_validated_events(trace)


_COMPONENTS = ("A1", "B2", "C3")
_API_CALLS = (
    ("Camera.open", {}),
    ("Camera.release", {}),
    ("registerService", {"service": "S1"}),
    ("registerService", {"service": "S2"}),
    ("unregisterService", {"service": "S1"}),
    ("setTimer", {"timer": "T1"}),
    ("clearTimer", {"timer": "T1"}),
    ("log", {"level": "info", "tag": "x"}),
)
_MODULES = ("CameraRelease", "OsgiUnregister", "ReactCleanup")


@st.composite
def scenarios(draw):
    """Steps on a built-in lifecycle: mostly enabled callbacks, API calls
    and toggles, and now and then a step that fails: a callback that is not
    enabled (or not even an identifier), a keyed acquire without its key,
    or a toggle of an unknown module."""
    model = builtin_lifecycle(
        draw(st.sampled_from(["activity", "osgi-bundle", "react-component"]))
    )
    components = draw(st.lists(st.sampled_from(_COMPONENTS), min_size=1, unique=True))
    callbacks = sorted({cb for _source, cb, _target in model.transitions})
    state = dict.fromkeys(components, model.initial)
    steps = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["lc"] * 8 + ["call"] * 8 + ["toggle"] * 2 + ["odd"]))
        component = draw(st.sampled_from(components))
        enabled = sorted(cb for s, cb, _t in model.transitions if s == state[component])
        if kind == "call":
            steps.append(ApiCallStep(component, *draw(st.sampled_from(_API_CALLS))))
        elif kind == "toggle":
            steps.append(ToggleStep(draw(st.sampled_from(_MODULES)), draw(st.booleans())))
        elif kind == "lc" and enabled:
            callback = draw(st.sampled_from(enabled))
            state[component] = model.target(state[component], callback)
            steps.append(LifecycleStep(component, callback))
        else:
            steps.append(
                draw(
                    st.sampled_from(
                        [LifecycleStep(component, cb) for cb in callbacks + ["on/Create"]]
                        + [ApiCallStep(component, "setTimer"), ToggleStep("Ghost", False)]
                    )
                )
            )
            if isinstance(steps[-1], LifecycleStep):
                callback = steps[-1].callback
                state[component] = model.target(state[component], callback) or state[component]
    return Scenario("generated", model, tuple(components), tuple(steps))


def _scenario_text(scenario):
    lines = [f"scenario {scenario.name}", f"lifecycle {scenario.lifecycle.name}"]
    lines += [f"component {c}" for c in scenario.components]
    for step in scenario.steps:
        if isinstance(step, LifecycleStep):
            lines.append(f"lc {step.component} {step.callback}")
        elif isinstance(step, ApiCallStep):
            attrs = "".join(f" {k}={v}" for k, v in step.attrs.items())
            lines.append(f"call {step.component} {step.name}{attrs}")
        else:
            lines.append(f"toggle {step.module} {'on' if step.active else 'off'}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(scenarios(), st.booleans())
def test_trusted_run_matches_the_validated_reference(scenario, enforced):
    outcome = _outcome(run_scenario, scenario, enforced)
    assert outcome == _outcome(reference_run_scenario, scenario, enforced)
    if isinstance(outcome[0], Trace):
        _assert_like_validated_events(outcome[0])
    # parse_scenario skips Scenario's checks; what it builds must not differ.
    assert parse_scenario(_scenario_text(scenario)) == scenario


_API_NAMES = sorted({name for name, _attrs in _API_CALLS})


@settings(max_examples=200, deadline=None)
@given(
    scenarios(),
    st.booleans(),
    st.lists(
        st.builds(
            ResourceModel,
            st.sampled_from(["R1", "R2"]),
            st.sampled_from(_API_NAMES),
            st.sampled_from(_API_NAMES),
            st.sampled_from([None, "service", "timer", "tag"]),
        ),
        max_size=4,
    ).map(tuple),
)
def test_trusted_run_matches_the_validated_reference_on_drawn_resources(
    scenario, enforced, resources
):
    """Resources that share names, slots or API calls: one call may be one
    resource's acquire and another's release, and then the acquire wins."""
    outcome = _outcome(run_scenario, scenario, enforced, resources)
    assert outcome == _outcome(reference_run_scenario, scenario, enforced, resources)


def test_run_scenario_builds_no_validated_event(monkeypatch):
    scenario = _scenario("osgi-stop-leak.scn")
    registry = _registry_for("osgi_unregister.policy")
    calls = []
    original = Event.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(Event, "__post_init__", counting)
    _, baseline = run_scenario(scenario)
    trace, enforced = run_scenario(scenario, registry)
    assert len(baseline.leaks) == 2 and enforced.leaks == []
    assert sum(e.synthetic for e in trace) == 2
    assert calls == []
