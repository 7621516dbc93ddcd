"""The three benchmark workloads: inputs, the timed pass, reference checks.

A workload is built from a seed (the benchmark's side: generate inputs),
then ``setup`` runs the program's side of getting ready (parse and validate
documents, build registries, parse scenarios) against freshly imported
enforcekit modules. ``run_pass`` is the timed region: one complete pass
over the inputs, made of units (a verify job, an enforce job, or one
scenario run baseline and enforced) whose latencies are recorded.
``check_pass`` and ``check_final`` compare what the program produced with
answers that do not come from the code being measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import generate

POLICIES = (
    "catalog/camera_release.policy",
    "catalog/osgi_unregister.policy",
    "catalog/react_cleanup.policy",
)
MONITORS = ("catalog/camera.monitor", "catalog/osgi.monitor", "catalog/react.monitor")
IDENTITY_POLICY = "benchmarks/identity.policy"
WORK_DIR = ".bench_work"

# Outcomes the shipped scenarios document in their comments and in the
# README, under the three catalog policies stacked: (baseline leaks,
# baseline denied, enforced leaks, enforced denied).
SHIPPED_SCENARIOS = {
    "plumeria-leak": (1, 1, 0, 0),
    "plumeria-compliant": (0, 0, 0, 0),
    "osgi-stop-leak": (2, 0, 0, 0),
    "osgi-stop-compliant": (0, 0, 0, 0),
    "react-timer-leak": (1, 0, 0, 0),
    "react-timer-compliant": (0, 0, 0, 0),
}


@dataclass
class Pass:
    """What one timed pass produced."""

    latencies: list[float]  # seconds, one per unit
    events: int  # input events the program processed
    outputs: list  # per unit, for the reference checks
    errors: list[str] = field(default_factory=list)  # units that raised
    report_lines: int = 0  # lines the CLI printed

    @property
    def units(self) -> int:
        return len(self.latencies)

    @property
    def seconds(self) -> float:
        """Timed work of the pass: its units, without the checks between them."""
        return sum(self.latencies)


def _sha256(*parts: str | bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode() if isinstance(part, str) else part)
        digest.update(b"\0")
    return digest.hexdigest()


def _cli(mods, argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = mods.cli.main(argv)
    return code, buffer.getvalue()


def _load_documents(mods, paths, texts: dict[str, str]) -> list:
    """Parse and validate documents the way ``enforcekit check`` does."""
    documents = []
    for path in paths:
        document = mods.dsl.parse_document(texts[path])
        if isinstance(document, mods.policy.PolicySpec):
            diagnostics = mods.policy.validate_policy(document)
        else:
            diagnostics = mods.oracle.validate_monitor(document)
        errors = [d for d in diagnostics if d.severity is mods.policy.Severity.ERROR]
        if errors:
            raise ValueError(f"{path}: {errors[0].message}")
        documents.append(document)
    return documents


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.texts = {p: (root / p).read_text() for p in self.documents()}
        self.first: list | None = None  # outputs of the first pass

    def documents(self) -> tuple[str, ...]:
        return POLICIES + MONITORS

    def setup(self, mods) -> None:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def check_unit(self, index: int, output) -> list[str]:
        raise NotImplementedError

    def check_pass(self, run: Pass) -> list[str]:
        """Every unit against its reference, and the pass against the first."""
        problems = list(run.errors)
        for index, output in enumerate(run.outputs):
            if output is not None:
                problems += self.check_unit(index, output)
        if self.first is None:
            self.first = run.outputs
        elif run.outputs != self.first:
            problems.append("output differs from the first pass")
        return problems

    def check_final(self) -> list[str]:
        return []

    def digest(self) -> str:
        """A digest of the first pass's outputs, for the golden file."""
        return _sha256(*(repr(output) for output in self.first or ()))

    def golden_key(self) -> str:
        """Identifies the input size the golden digests were made at."""
        raise NotImplementedError


class VerifyCatalog(Workload):
    """`enforcekit verify` over four policy/monitor pairs.

    Every event is in the alphabet and every trace is tiny and starts from
    a fresh registry, so monitor checks, enumeration, registry resets,
    instance creation and ``Trace.renumbered`` dominate; trace parsing and
    serialization are not on the path.
    """

    name = "verify-catalog"

    def __init__(self, root: Path, seed: int, shorten: int = 0):
        super().__init__(root, seed)
        self.shorten = shorten
        self.cases = generate.verify_cases(seed, IDENTITY_POLICY, shorten)
        # Input events enforced per job: sum over lengths k of k * |A|^k.
        self.case_events = [
            sum(k * len(c.events) ** k for k in range(1, c.max_len + 1)) for c in self.cases
        ]

    def documents(self) -> tuple[str, ...]:
        return POLICIES + MONITORS + (IDENTITY_POLICY,)

    def setup(self, mods) -> None:
        self.mods = mods
        _load_documents(mods, self.documents(), self.texts)

    def run_pass(self) -> Pass:
        latencies, outputs, errors, lines = [], [], [], 0
        for case in self.cases:
            t0 = time.perf_counter()
            try:
                code, out = _cli(self.mods, case.argv())
            except Exception as err:  # a failed unit is counted, not fatal
                errors.append(f"{case.name}: {type(err).__name__}: {err}")
                code, out = None, None
            latencies.append(time.perf_counter() - t0)
            outputs.append(None if code is None else (code, out))
            lines += out.count("\n") if out else 0
        return Pass(latencies, sum(self.case_events), outputs, errors, lines)

    def check_unit(self, index: int, output) -> list[str]:
        case = self.cases[index]
        code, out = output
        yes = {True: "yes", False: "no"}
        want = (
            f"type=verdict traces={case.traces} "
            f"sound={yes[case.sound]} transparent={yes[case.transparent]}"
        )
        lines = out.splitlines()
        problems = []
        if not lines or lines[0] != want:
            problems.append(f"{case.name}: verdict {lines[:1]} != {want!r}")
        if code != (0 if case.sound and case.transparent else 1):
            problems.append(f"{case.name}: exit code {code}")
        if not case.sound and not any("kind=soundness" in line for line in lines):
            problems.append(f"{case.name}: unsound but no soundness counterexample")
        return problems

    def golden_key(self) -> str:
        return f"max_len-{self.shorten}"


class EnforceStream(Workload):
    """One `enforcekit enforce` job over a long generated trace.

    Parsing, module dispatch, broadcast fan-out over large per-binder
    instance tables, one big ``Trace.renumbered`` and serialization all
    sit on the path.
    """

    name = "enforce-stream"

    def __init__(self, root: Path, seed: int, n_events: int = 15_000):
        super().__init__(root, seed)
        self.n_events = n_events
        text, self.model = generate.stream_trace(seed, n_events)
        work = root / WORK_DIR
        work.mkdir(exist_ok=True)
        self.trace_path = work / "stream.trace"
        self.out_path = work / "stream.enforced.trace"
        self.trace_path.write_text(text)
        self.argv = ["enforce"]
        for path in POLICIES:
            self.argv += ["-p", path]
        self.argv += [
            str(self.trace_path.relative_to(root)), "-o", str(self.out_path.relative_to(root)),
            "--format", "structured",
        ]

    def setup(self, mods) -> None:
        self.mods = mods
        self.monitors = _load_documents(mods, MONITORS, self.texts)
        _load_documents(mods, POLICIES, self.texts)

    def run_pass(self) -> Pass:
        errors = []
        if self.out_path.exists():
            self.out_path.unlink()
        start = time.perf_counter()
        try:
            code, report = _cli(self.mods, self.argv)
        except Exception as err:  # a failed unit is counted, not fatal
            errors.append(f"enforce: {type(err).__name__}: {err}")
        seconds = time.perf_counter() - start
        if errors:
            output = None
        else:
            enforced = self.out_path.read_bytes() if self.out_path.exists() else b""
            output = (code, report, _sha256(enforced))
        lines = report.count("\n") if output else 0
        return Pass([seconds], self.n_events, [output], errors, lines)

    def check_unit(self, index: int, output) -> list[str]:
        code, report, _digest = output
        want = self.model.inserted
        total = f"type=total inserted={want} suppressed=0 "
        last = report.splitlines()[-1] if report else ""
        problems = []
        if code != 0:
            problems.append(f"enforce exited {code}")
        if not last.startswith(total) or not last.endswith(f" delta={want}"):
            problems.append(f"report totals {last!r}, want inserted={want} suppressed=0")
        return problems

    def check_final(self) -> list[str]:
        """Violations of the raw and the enforced trace, by the monitors."""
        if not self.out_path.exists():
            return ["no enforced trace was written"]
        events = self.mods.events
        check = self.mods.oracle.check
        raw = events.parse_trace(self.trace_path.read_text())
        enforced = events.parse_trace(self.out_path.read_text())
        problems = []
        for monitor in self.monitors:
            got = len(check(raw, monitor))
            want = self.model.input_violations[monitor.name]
            if got != want:
                problems.append(f"{monitor.name}: {got} input violations, model says {want}")
            left = check(enforced, monitor)
            if left:
                problems.append(f"{monitor.name}: enforced trace violates: {left[0]}")
        if len(enforced) != len(raw) + self.model.inserted:
            problems.append(f"enforced length {len(enforced)} != {len(raw)} + inserted")
        return problems

    def golden_key(self) -> str:
        return f"events-{self.n_events}"


class SimulateFleet(Workload):
    """Thousands of short scenarios, each run baseline and then enforced.

    Events go through ``enforce_event`` one at a time, instances are small
    and churn (registry resets and module toggles are the writes beside the
    reads), and the simulator's resource bookkeeping is on the path.
    """

    name = "simulate-fleet"

    def __init__(self, root: Path, seed: int, n_scenarios: int = 2_000):
        super().__init__(root, seed)
        self.n_scenarios = n_scenarios
        self.generated = generate.fleet(seed, n_scenarios)
        self.scenario_texts = [(s.name, s.text) for s in self.generated]
        for name in SHIPPED_SCENARIOS:
            self.scenario_texts.append((name, (root / "scenarios" / f"{name}.scn").read_text()))
        self.expected = [(s.baseline_leaks, s.baseline_denied) for s in self.generated]
        self.expected += [outcome[:2] for outcome in SHIPPED_SCENARIOS.values()]
        self.enforced_expected = [None if s.toggles else (0,) for s in self.generated]
        self.enforced_expected += [outcome[2:] for outcome in SHIPPED_SCENARIOS.values()]

    def setup(self, mods) -> None:
        self.mods = mods
        policies = _load_documents(mods, POLICIES, self.texts)
        self.registry = mods.enforcement.ModuleRegistry.from_policies(policies)
        parse = mods.simulator.parse_scenario
        self.scenarios = [parse(text, default_name=name) for name, text in self.scenario_texts]
        # Events each scenario feeds the simulator, once per run.
        toggle = mods.simulator.ToggleStep
        self.events = 2 * sum(
            sum(not isinstance(step, toggle) for step in s.steps) for s in self.scenarios
        )

    def _fresh_registry(self) -> None:
        registry = self.registry
        for module in registry.modules:
            if not module.active:
                registry.set_active(module.name, True)
        registry.reset()

    def run_pass(self) -> Pass:
        run_scenario = self.mods.simulator.run_scenario
        registry = self.registry
        latencies, outputs, errors = [], [], []
        for scenario in self.scenarios:
            t0 = time.perf_counter()
            try:
                _trace, baseline = run_scenario(scenario)
                self._fresh_registry()
                trace, enforced = run_scenario(scenario, registry)
            except Exception as err:  # a failed unit is counted, not fatal
                latencies.append(time.perf_counter() - t0)
                errors.append(f"{scenario.name}: {type(err).__name__}: {err}")
                outputs.append(None)
                continue
            latencies.append(time.perf_counter() - t0)
            # Reduce to plain values between units, outside the timing.
            outputs.append((
                len(baseline.leaks), len(baseline.denied),
                len(enforced.leaks), len(enforced.denied),
                _sha256(*map(str, baseline.leaks + baseline.denied + enforced.leaks),
                        *(event.literal() for event in trace)),
            ))
        return Pass(latencies, self.events, outputs, errors)

    def check_unit(self, index: int, output) -> list[str]:
        b_leaks, b_denied, e_leaks, e_denied, _digest = output
        problems = []
        name = self.scenarios[index].name
        if (b_leaks, b_denied) != self.expected[index]:
            problems.append(
                f"{name}: baseline leaks/denied {(b_leaks, b_denied)} != {self.expected[index]}"
            )
        want = self.enforced_expected[index]
        if want is not None and (e_leaks, e_denied)[: len(want)] != want:
            problems.append(f"{name}: enforced leaks/denied {(e_leaks, e_denied)} != {want}")
        return problems

    def golden_key(self) -> str:
        return f"scenarios-{self.n_scenarios}"


WORKLOADS = {w.name: w for w in (VerifyCatalog, EnforceStream, SimulateFleet)}
