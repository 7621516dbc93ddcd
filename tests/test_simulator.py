"""Scenario parsing and the lifecycle/resource simulator."""

import pytest

from enforcekit import (
    ApiCallStep,
    DeniedAcquire,
    Event,
    EventKind,
    EventPattern,
    LeakRecord,
    LifecycleModel,
    LifecycleStep,
    ModuleRegistry,
    OutputTemplate,
    PolicySpec,
    Scenario,
    ScenarioError,
    ScenarioParseError,
    ToggleStep,
    Trace,
    Transition,
    UnknownLifecycleError,
    builtin_lifecycle,
    inactive_states,
    parse_policy,
    parse_scenario,
    run_scenario,
    validate_lifecycle,
)

from conftest import CATALOG, SCENARIOS

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
            ("call A1 Camera.open mode=fast!", "attribute value 'fast!' must be"),
            ("call A1 Camera.open mo$de=fast", "attribute key 'mo$de' must be"),
            ("call A1 Camera.open mode=", "attribute value '' must be"),
        ],
    )
    def test_bad_identifiers_are_parse_errors(self, step, fragment):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(f"lifecycle activity\ncomponent A1\n{step}\n")
        assert exc.value.line == 3
        assert fragment in str(exc.value)

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

    def test_keyed_api_call_without_its_key_attribute(self):
        text = (
            "lifecycle react-component\ncomponent C1\n"
            "lc C1 componentDidMount\ncall C1 setTimer\n"
        )
        with pytest.raises(ScenarioError) as exc:
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
