from pathlib import Path

import pytest
from hypothesis import strategies as st

from enforcekit import (
    INPUT,
    PASS,
    Binder,
    DefaultAction,
    Event,
    EventKind,
    EventPattern,
    EventUniverse,
    Instancing,
    Literal,
    MonitorAutomaton,
    OutputTemplate,
    PolicySpec,
    SynthEvent,
    Transition,
    parse_monitor,
    parse_policy,
)

ROOT = Path(__file__).resolve().parent.parent
CATALOG = ROOT / "catalog"
SCENARIOS = ROOT / "scenarios"

CATALOG_POLICIES = ["camera_release.policy", "osgi_unregister.policy", "react_cleanup.policy"]
CATALOG_MONITORS = ["camera.monitor", "osgi.monitor", "react.monitor"]


@pytest.fixture(scope="session")
def camera_policy():
    return parse_policy((CATALOG / "camera_release.policy").read_text())


@pytest.fixture(scope="session")
def camera_monitor():
    return parse_monitor((CATALOG / "camera.monitor").read_text())


@pytest.fixture(scope="session")
def osgi_policy():
    return parse_policy((CATALOG / "osgi_unregister.policy").read_text())


@pytest.fixture(scope="session")
def osgi_monitor():
    return parse_monitor((CATALOG / "osgi.monitor").read_text())


@pytest.fixture(scope="session")
def react_policy():
    return parse_policy((CATALOG / "react_cleanup.policy").read_text())


@pytest.fixture(scope="session")
def react_monitor():
    return parse_monitor((CATALOG / "react.monitor").read_text())


def camera_alphabet() -> tuple[Event, ...]:
    """The concrete event universe used throughout the camera properties."""
    return (
        Event.api("Camera.open", "A1"),
        Event.api("Camera.release", "A1"),
        Event.cb("onPause", "A1"),
        Event.cb("onResume", "A1"),
    )


@pytest.fixture(scope="session")
def camera_universe_len3() -> EventUniverse:
    return EventUniverse(camera_alphabet(), max_len=3)


# Random well-formed policies and monitors, built programmatically. Each
# draws its patterns from one of two alphabets: plain patterns, or
# patterns that bind a resource id, where the binder-free ``cb stop``
# broadcasts under per-binder instancing. A third alphabet, which only
# some tests draw from, declares a binder-free ``api release`` before
# ``api release{res=$r}``: every release matches the first and broadcasts,
# and transitions on the second still fire on it and bind ``$r``.

API = EventKind.API_CALL
CB = EventKind.CALLBACK

PLAIN_PATTERNS = (
    EventPattern(CB, "onStop"),
    EventPattern(API, "acquire"),
    EventPattern(API, "release", (("mode", Literal("fast")),)),
)
BINDER_PATTERNS = (
    EventPattern(API, "acquire", (("res", Binder("r")),)),
    EventPattern(API, "release", (("res", Binder("r")),)),
    EventPattern(CB, "stop"),
)
SHADOWED_PATTERNS = (
    EventPattern(API, "acquire", (("res", Binder("r")),)),
    EventPattern(API, "release"),
    EventPattern(API, "release", (("res", Binder("r")),)),
    EventPattern(CB, "stop"),
)
_OUTPUTS = {
    PLAIN_PATTERNS: [
        PASS,
        OutputTemplate(()),
        OutputTemplate(
            (SynthEvent(API, "release", (("mode", Literal("fast")),)), INPUT)
        ),
        OutputTemplate((INPUT, SynthEvent(CB, "onStop"))),
    ],
    BINDER_PATTERNS: [
        PASS,
        OutputTemplate(()),
        OutputTemplate((SynthEvent(API, "release", (("res", Binder("r")),)), INPUT)),
        OutputTemplate((INPUT, SynthEvent(CB, "stop"))),
    ],
}
_OUTPUTS[SHADOWED_PATTERNS] = _OUTPUTS[BINDER_PATTERNS]
_state_names = st.lists(
    st.sampled_from(["S0", "S1", "S2", "S3"]), min_size=1, max_size=4, unique=True
)


def _keying(draw, patterns) -> dict:
    """Instancing and binder attribute; only the binder alphabets can key per binder."""
    modes = [Instancing.SINGLETON, Instancing.PER_COMPONENT]
    if patterns is not PLAIN_PATTERNS:
        modes.append(Instancing.PER_BINDER)
    instancing = draw(st.sampled_from(modes))
    binder_attr = "res" if instancing is Instancing.PER_BINDER else None
    return {"instancing": instancing, "binder_attr": binder_attr}


@st.composite
def policies(draw, patterns=None):
    """A policy over ``patterns`` (either alphabet when None)."""
    if patterns is None:
        patterns = draw(st.sampled_from([PLAIN_PATTERNS, BINDER_PATTERNS]))
    states = tuple(draw(_state_names))
    transitions = []
    for _ in range(draw(st.integers(0, 4))):
        source = draw(st.sampled_from(states))
        target = draw(st.sampled_from(states))
        pattern = draw(st.sampled_from(patterns))
        output = draw(st.sampled_from(_OUTPUTS[patterns]))
        transitions.append(Transition(source, pattern, target, output))
    return PolicySpec(
        name=draw(st.sampled_from(["P", "Q.R", "Pol-1"])),
        states=states,
        initial=states[0],
        transitions=tuple(transitions),
        default=draw(st.sampled_from(list(DefaultAction))),
        alphabet=patterns,
        statement=draw(st.sampled_from(["", "close before stop", 'quote " and \\ pass'])),
        **_keying(draw, patterns),
    )


@st.composite
def monitors(draw, patterns=None, *, can_fail=False):
    """A monitor over ``patterns``, with error states that have no outgoing transitions.

    With ``can_fail`` the initial state enters the error state ``BAD`` on
    some alphabet pattern, so some trace violates the monitor.
    """
    if patterns is None:
        patterns = draw(st.sampled_from([PLAIN_PATTERNS, BINDER_PATTERNS]))
    states = tuple(draw(_state_names))
    errors = frozenset(draw(st.lists(st.sampled_from(states), unique=True)))
    initial = draw(st.sampled_from(states))
    transitions = []
    if can_fail:
        states += ("BAD",)
        errors = errors - {initial} | {"BAD"}
        transitions.append(Transition(initial, draw(st.sampled_from(patterns)), "BAD", None))
    sources = [state for state in states if state not in errors]
    if sources:
        for _ in range(draw(st.integers(0, 4))):
            source = draw(st.sampled_from(sources))
            target = draw(st.sampled_from(states))
            pattern = draw(st.sampled_from(patterns))
            transitions.append(Transition(source, pattern, target, None))
    return MonitorAutomaton(
        name=draw(st.sampled_from(["M", "Mon.1", "Leak-Check"])),
        states=states,
        initial=initial,
        error_states=errors,
        transitions=tuple(transitions),
        alphabet=patterns,
        statement=draw(st.sampled_from(["", "no leak", 'quote " and \\ pass'])),
        **_keying(draw, patterns),
    )
