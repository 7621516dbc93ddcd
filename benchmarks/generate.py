"""Seeded input generators for the enforcekit benchmark.

Every generator is a pure function of its seed and size: the same arguments
give the same text, byte for byte. Each also returns the expectations its
own model derives while generating, so the benchmark can check the
program's answers without asking the program.

This module uses only the standard library and never imports enforcekit:
the inputs and their expected answers must not depend on the code under
measurement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

# Policy names as declared in catalog/*.policy; scenario toggles use them.
CAMERA, OSGI, REACT = "CameraRelease", "OsgiUnregister", "ReactCleanup"


# ---------------------------------------------------------------------------
# verify-catalog


@dataclass(frozen=True)
class VerifyCase:
    """One `enforcekit verify` job and the verdict it must give."""

    name: str
    policy: str  # path relative to the checkout root
    monitor: str
    events: tuple[str, ...]  # alphabet as event literals
    max_len: int
    sound: bool
    transparent: bool

    @property
    def traces(self) -> int:
        base = len(self.events)
        return sum(base**k for k in range(self.max_len + 1))

    def argv(self) -> list[str]:
        argv = ["verify", "-p", self.policy, "-m", self.monitor]
        for literal in self.events:
            argv += ["-e", literal]
        return argv + ["--max-len", str(self.max_len), "--format", "structured"]


def verify_cases(seed: int, identity_policy: str, scale: int = 0) -> list[VerifyCase]:
    """The four policy/monitor pairs of verify-catalog.

    The seed picks the component, service and timer ids and the order of
    each alphabet, which fixes the enumeration order and so the order of
    counterexamples; the verdicts themselves do not depend on it. ``scale``
    shortens every bound by that many events (for smoke tests).
    """
    rng = random.Random(f"verify-catalog:{seed}")
    a = f"A{rng.randrange(1, 100)}"
    b = f"B{rng.randrange(1, 100)}"
    c = f"C{rng.randrange(1, 100)}"
    s1, s2 = (f"S{n}" for n in rng.sample(range(1, 100), 2))
    t1, t2 = (f"T{n}" for n in rng.sample(range(1, 100), 2))
    camera = [
        f"api:Camera.open@{a}", f"api:Camera.release@{a}",
        f"cb:onPause@{a}", f"cb:onResume@{a}",
    ]
    osgi = [
        f"api:registerService@{b}{{service={s1}}}",
        f"api:registerService@{b}{{service={s2}}}",
        f"api:unregisterService@{b}{{service={s1}}}",
        f"api:unregisterService@{b}{{service={s2}}}",
        f"cb:stop@{b}",
    ]
    react = [
        f"api:setTimer@{c}{{timer={t1}}}",
        f"api:setTimer@{c}{{timer={t2}}}",
        f"api:clearTimer@{c}{{timer={t1}}}",
        f"cb:componentWillUnmount@{c}",
    ]
    for alphabet in (camera, osgi, react):
        rng.shuffle(alphabet)
    # Bounds keep every job near 0.1 s, so a run repeats each job often.
    return [
        VerifyCase("camera", "catalog/camera_release.policy", "catalog/camera.monitor",
                   tuple(camera), 5 - scale, True, True),
        VerifyCase("osgi", "catalog/osgi_unregister.policy", "catalog/osgi.monitor",
                   tuple(osgi), 4 - scale, True, True),
        VerifyCase("react", "catalog/react_cleanup.policy", "catalog/react.monitor",
                   tuple(react), 5 - scale, True, True),
        VerifyCase("identity", identity_policy, "catalog/camera.monitor",
                   tuple(camera), 5 - scale, False, True),
    ]


# ---------------------------------------------------------------------------
# enforce-stream


@dataclass(frozen=True)
class StreamModel:
    """What the generator knows about the trace it wrote."""

    events: int
    noise: int  # events outside every catalog alphabet
    input_violations: dict  # monitor name -> violations of the raw trace
    inserted: int  # events the three stacked catalog policies must insert


class _Component:
    __slots__ = ("kind", "name", "state", "held", "closing")

    def __init__(self, kind: str, name: str, state: str):
        self.kind = kind
        self.name = name
        self.state = state
        self.held: list[str] = []  # resources the application believes it holds
        self.closing = False  # releasing everything before suspending


# Shape of the enforce-stream trace. Zipf(1.0) over 600 components keeps
# the busiest bundles' instance tables large; a flatter law spreads the
# broadcast cost out, a steeper one makes it swing with the seed.
STREAM_COMPONENTS = 600
STREAM_ZIPF_S = 1.0
STREAM_NOISE_SHARE = 0.25
STREAM_LEAK_RATE = 0.15


def stream_trace(seed: int, n_events: int) -> tuple[str, StreamModel]:
    """A long multi-lifecycle trace in the canonical trace file format.

    Components of the three lifecycles (activity, OSGi bundle, React
    component) take turns by Zipf-skewed popularity. A share
    ``STREAM_NOISE_SHARE`` of the events are API calls outside every
    catalog alphabet. Every service and timer id is fresh, so the
    per-binder instance tables only grow. A component about to suspend
    while holding something skips its clean-up with probability
    ``STREAM_LEAK_RATE``; each such leak is an input violation (at most one
    per camera instance, since monitor error states absorb) and an
    insertion under enforcement.
    """
    n_components, leak_rate = STREAM_COMPONENTS, STREAM_LEAK_RATE
    rng = random.Random(f"enforce-stream:{seed}")
    kinds = ("activity", "bundle", "react")
    initial = {"activity": "initial", "bundle": "installed", "react": "unmounted"}
    prefix = {"activity": "A", "bundle": "B", "react": "C"}
    components = []
    for rank in range(n_components):
        kind = kinds[rank % 3]
        components.append(_Component(kind, f"{prefix[kind]}{rank}", initial[kind]))
    cum = list(accumulate(1.0 / (r + 1) ** STREAM_ZIPF_S for r in range(n_components)))
    fresh = 0
    noise = inserted = 0
    violations = {"CameraMonitor": 0, "OsgiMonitor": 0, "ReactMonitor": 0}
    camera_leaked: set[str] = set()
    lines: list[str] = []

    def emit(event: str, attrs: str = "") -> None:
        lines.append(f"{len(lines) + 1} {event}{attrs}")

    def suspend(comp: _Component, callback: str, monitor: str) -> None:
        """Enter the suspended state; anything still held leaks."""
        nonlocal inserted
        leaked = len(comp.held)
        if leaked:
            inserted += leaked
            if comp.kind != "activity":
                violations[monitor] += leaked
            elif comp.name not in camera_leaked:
                camera_leaked.add(comp.name)
                violations[monitor] += 1
        comp.held.clear()
        comp.closing = False
        emit(f"cb:{callback}@{comp.name}")

    def release_one(comp: _Component, api: str, attr: str) -> None:
        res = comp.held.pop(rng.randrange(len(comp.held)))
        emit(f"api:{api}@{comp.name}", f" {attr}={res}" if attr else "")

    while len(lines) < n_events:
        comp = components[rng.choices(range(n_components), cum_weights=cum)[0]]
        if rng.random() < STREAM_NOISE_SHARE:
            noise += 1
            emit(f"api:{rng.choice(('Log.d', 'Http.get', 'Prefs.read'))}@{comp.name}")
            continue
        r = rng.random()
        if comp.kind == "activity":
            if comp.state == "initial":
                comp.state = "created"
                emit(f"cb:onCreate@{comp.name}")
            elif comp.state in ("created", "paused"):
                comp.state = "resumed"
                emit(f"cb:onResume@{comp.name}")
            elif not comp.held:
                if r < 0.5:
                    comp.held.append("camera")
                    emit(f"api:Camera.open@{comp.name}")
                else:
                    comp.state = "paused"
                    suspend(comp, "onPause", "CameraMonitor")
            elif r >= leak_rate:
                release_one(comp, "Camera.release", "")
            else:
                comp.state = "paused"
                suspend(comp, "onPause", "CameraMonitor")
        elif comp.kind == "bundle":
            if comp.state in ("installed", "stopped"):
                comp.state = "started"
                emit(f"cb:start@{comp.name}")
            elif comp.closing and comp.held:
                release_one(comp, "unregisterService", "service")
            elif comp.closing:
                comp.state = "stopped"
                suspend(comp, "stop", "OsgiMonitor")
            elif r < 0.45:
                fresh += 1
                comp.held.append(f"S{fresh}")
                emit(f"api:registerService@{comp.name}", f" service=S{fresh}")
            elif comp.held and r < 0.7:
                release_one(comp, "unregisterService", "service")
            elif comp.held and rng.random() >= leak_rate:
                comp.closing = True
                release_one(comp, "unregisterService", "service")
            else:
                comp.state = "stopped"
                suspend(comp, "stop", "OsgiMonitor")
        else:
            if comp.state == "unmounted":
                comp.state = "mounted"
                emit(f"cb:componentDidMount@{comp.name}")
            elif comp.closing and comp.held:
                release_one(comp, "clearTimer", "timer")
            elif comp.closing:
                comp.state = "unmounted"
                suspend(comp, "componentWillUnmount", "ReactMonitor")
            elif r < 0.45:
                fresh += 1
                comp.held.append(f"T{fresh}")
                emit(f"api:setTimer@{comp.name}", f" timer=T{fresh}")
            elif comp.held and r < 0.7:
                release_one(comp, "clearTimer", "timer")
            elif comp.held and rng.random() >= leak_rate:
                comp.closing = True
                release_one(comp, "clearTimer", "timer")
            else:
                comp.state = "unmounted"
                suspend(comp, "componentWillUnmount", "ReactMonitor")
    text = "\n".join(lines) + "\n"
    return text, StreamModel(len(lines), noise, violations, inserted)


# ---------------------------------------------------------------------------
# simulate-fleet


@dataclass(frozen=True)
class FleetScenario:
    name: str
    text: str  # scenario file contents
    baseline_leaks: int
    baseline_denied: int
    toggles: bool


# Per lifecycle: model name, component prefix, resource API pair, key
# attribute and id prefix (None for the camera), the policy guarding it.
_FLEET_KINDS = (
    ("activity", "A", ("Camera.open", "Camera.release"), None, CAMERA),
    ("osgi-bundle", "B", ("registerService", "unregisterService"), ("service", "S"), OSGI),
    ("react-component", "C", ("setTimer", "clearTimer"), ("timer", "T"), REACT),
)


def fleet(seed: int, n_scenarios: int) -> list[FleetScenario]:
    """Short generated scenarios across the three built-in lifecycles.

    Components in one scenario share resource slots (one camera, a small
    pool of service and timer ids), so acquires are denied as well as
    leaked. About one scenario in seven switches its policy off and on
    again part-way through. The baseline counts come from the generator's
    own replay of the simulator's resource rules: an acquire of a held slot
    is denied, a release by a non-holder is a no-op, and entering an
    inactive state with a slot held is one leak per slot.
    """
    rng = random.Random(f"simulate-fleet:{seed}")
    out = []
    for index in range(n_scenarios):
        lifecycle, prefix, (acquire, release), keyed, policy = rng.choice(_FLEET_KINDS)
        names = [f"{prefix}{i + 1}" for i in range(rng.randint(1, 3))]
        state = {n: "init" for n in names}
        believed: dict[str, list[str]] = {n: [] for n in names}
        holder: dict[str, str] = {}  # slot -> component
        leaks = denied = 0
        steps: list[str] = []
        toggles = rng.random() < 0.15
        n_steps = rng.randint(6, 40)
        toggle_at = sorted(rng.sample(range(n_steps), 2)) if toggles else []

        def lc(comp: str, callback: str, target: str, inactive: bool) -> None:
            nonlocal leaks
            steps.append(f"lc {comp} {callback}")
            state[comp] = target
            if inactive:
                leaks += sum(1 for h in holder.values() if h == comp)

        def call(comp: str, api: str, slot: str) -> None:
            nonlocal denied
            attrs = f" {keyed[0]}={slot}" if keyed else ""
            steps.append(f"call {comp} {api}{attrs}")
            if api == acquire:
                if slot in holder:
                    denied += 1
                else:
                    holder[slot] = comp
            elif holder.get(slot) == comp:
                del holder[slot]

        for step_no in range(n_steps):
            if step_no in toggle_at:
                steps.append(f"toggle {policy} {'off' if step_no == toggle_at[0] else 'on'}")
            live = [n for n in names if state[n] != "destroyed"]
            if not live:
                break
            comp = rng.choice(live)
            st, held, r = state[comp], believed[comp], rng.random()
            if lifecycle == "activity":
                if st == "init":
                    lc(comp, "onCreate", "created", False)
                elif st == "created":
                    lc(comp, "onResume", "resumed", False)
                elif st == "paused":
                    if r < 0.85:
                        lc(comp, "onResume", "resumed", False)
                    else:
                        lc(comp, "onDestroy", "destroyed", True)
                elif not held and r < 0.5:
                    held.append("camera")
                    call(comp, acquire, "camera")
                elif held and r < 0.75:
                    held.clear()
                    call(comp, release, "camera")
                else:
                    held.clear()
                    lc(comp, "onPause", "paused", True)
                continue
            active = "started" if lifecycle == "osgi-bundle" else "mounted"
            if st != active:
                lc(comp, "start" if lifecycle == "osgi-bundle" else "componentDidMount",
                   active, False)
            elif r < 0.45:
                slot = f"{keyed[1]}{rng.randint(1, 4)}"
                if slot not in held:
                    held.append(slot)
                call(comp, acquire, slot)
            elif held and r < 0.7:
                call(comp, release, held.pop(rng.randrange(len(held))))
            else:
                held.clear()
                if lifecycle == "osgi-bundle":
                    lc(comp, "stop", "stopped", True)
                else:
                    lc(comp, "componentWillUnmount", "unmounted", True)
        name = f"fleet-{seed}-{index}"
        header = [f"scenario {name}", f"lifecycle {lifecycle}"]
        header += [f"component {n}" for n in names]
        text = "\n".join(header + steps) + "\n"
        out.append(FleetScenario(name, text, leaks, denied, toggles))
    return out
