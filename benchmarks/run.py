"""Run one enforcekit benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload verify-catalog --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. The workload's inputs are generated from
``--seed``; the program is imported from ``src/`` and sees only those
inputs. Passes over the inputs repeat until ``--seconds`` of timed work
have been done. Every pass is checked against references that do not come
from the code under measurement, outside the timed region.

With ``--trace 0`` the end-to-end metrics are reported, their times scaled
to reference speed (see ``reference_s``). With ``--trace 1``
untraced and traced passes alternate, and the per-layer metrics come from
spans and counters recorded around enforcekit's public functions; the
spans are written to ``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every reference check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import generate  # noqa: E402
from tracing import Tracer, span_totals  # noqa: E402
from workloads import WORK_DIR, WORKLOADS  # noqa: E402

LAYERS = ("events", "dsl", "policy", "enforcement", "oracle", "simulator", "cli")
SETUP_SAMPLES = 15
MIN_PASSES = 3
GOLDEN = HERE / "golden.json"
# A round figure within the reference work's times on a shared 2-vCPU
# machine (see README.md): a scaled time reads as seconds on a machine on
# which the reference work takes exactly this long.
REFERENCE_S = 0.010


def fresh_import():
    """Import enforcekit from scratch, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "enforcekit" or n.startswith("enforcekit.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{layer: importlib.import_module(f"enforcekit.{layer}") for layer in LAYERS}
    )


def timed_setup(workload) -> tuple[SimpleNamespace, float]:
    """Import enforcekit afresh and set the workload up on it."""
    # A settled heap makes the collector run at the same points every time.
    gc.collect()
    start = time.perf_counter()
    mods = fresh_import()
    workload.setup(mods)
    return mods, time.perf_counter() - start


def reference_s() -> float:
    """Time a fixed piece of pure-Python work that enforcekit takes no part in.

    The work is generating a 3,000-event stream from seed 0. Other tenants
    of a shared machine change its speed for minutes at a time, and this
    work slows and speeds up with it much as enforcekit does.
    """
    start = time.perf_counter()
    generate.stream_trace(0, 3000)
    return time.perf_counter() - start


def at_reference_speed(timed):
    """Call ``timed`` between two timings of the reference work.

    Returns its result and the factor that scales a time measured during
    the call to reference speed: ``REFERENCE_S`` over the mean of the two
    reference timings.
    """
    before = reference_s()
    result = timed()
    return result, 2 * REFERENCE_S / (before + reference_s())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def end_to_end(passes: list, events: int, setups: list[float]) -> dict:
    """Figures over the untraced passes, each a list of its unit times.

    Unit times and ``setups`` are scaled to reference speed already. A
    pass's time is the sum of its unit times, and ``verdict_s`` is the
    median pass. The percentiles are taken over the units' median times,
    so they show how the cost differs between units, not which units a
    burst of contention happened to hit. Medians move little with such
    bursts and do not drift with the number of passes.
    """
    unit_s = [statistics.median(column) for column in zip(*passes)]
    pass_s = statistics.median(sum(times) for times in passes)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "verdict_s": (pass_s, "s"),
        "events_per_s": (events / pass_s, "1/s"),
        "scenarios_per_s": (len(unit_s) / pass_s, "1/s"),
        "scenario_p50_ms": (1e3 * statistics.median(unit_s), "ms"),
        "scenario_p99_ms": (1e3 * percentile(unit_s, 99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(traced, untraced) -> dict:
    """Per-layer figures for one pass: median times, counts of the last pass.

    ``traced`` holds one ``(seconds, report_lines, setup_spans, spans,
    counts, live)`` entry per traced pass, ``untraced`` the times of the
    untraced passes.
    """
    rows = []
    for seconds, _lines, setup_spans, spans, _counts, _live in traced:
        total, self_time, _calls = span_totals(spans)
        rows.append((seconds, total, self_time, span_totals(setup_spans)[0]))

    def median_of(pick) -> float:
        return statistics.median(pick(*row) for row in rows)

    def t(name, table=1):
        return (median_of(lambda *row: row[table][name]), "s")

    def n(value):
        return (value, "count")

    _seconds, report_lines, _setup_spans, spans, counts, live = traced[-1]
    calls = span_totals(spans)[2]
    inputs = counts["enforcement.input_events"]
    checks = counts["enforcement.alphabet_checks"]
    edits = counts["enforcement.inserted"] + counts["enforcement.suppressed"]
    untraced_s = statistics.median(untraced)
    traced_s = median_of(lambda seconds, *_: seconds)
    return {
        "events.parse_trace_s": t("events.parse_trace"),
        "events.serialize_trace_s": t("events.serialize_trace"),
        "events.renumbered_s": t("events.renumbered"),
        "events.renumbered_calls": n(calls["events.renumbered"]),
        "events.event_constructions": n(counts["events.event_constructions"]),
        "dsl.load_s": t("dsl.load", 3),
        "simulator.parse_scenario_s": t("simulator.parse_scenario", 3),
        "policy.index_transitions_calls": n(counts["policy.index_transitions_calls"]),
        "enforcement.enforce_trace_s": t("enforcement.enforce_trace"),
        "enforcement.enforce_trace_calls": n(calls["enforcement.enforce_trace"]),
        "enforcement.enforce_event_s": t("enforcement.enforce_event"),
        "enforcement.enforce_event_calls": n(calls["enforcement.enforce_event"]),
        "enforcement.self_s": (
            median_of(
                lambda _run, _total, self_time, _setup: self_time["enforcement.enforce_trace"]
                + self_time["enforcement.enforce_event"]
            ),
            "s",
        ),
        "enforcement.alphabet_checks": n(checks),
        "enforcement.alphabet_hit_ratio": (
            counts["enforcement.alphabet_hits"] / checks if checks else 0.0, "ratio"
        ),
        "enforcement.instance_steps": n(counts["enforcement.instance_steps"]),
        "enforcement.steps_per_event": (
            counts["enforcement.instance_steps"] / inputs if inputs else 0.0, "ratio"
        ),
        "enforcement.instances_created": n(counts["enforcement.instances_created"]),
        "enforcement.instances_live": n(live),
        "enforcement.inserted": n(counts["enforcement.inserted"]),
        "enforcement.suppressed": n(counts["enforcement.suppressed"]),
        "enforcement.edit_ratio": (edits / inputs if inputs else 0.0, "ratio"),
        "oracle.enumerate_s": t("oracle.enumerate"),
        "oracle.check_s": t("oracle.check"),
        "oracle.check_calls": n(calls["oracle.check"]),
        "oracle.traces_checked": n(counts["oracle.traces_checked"]),
        "oracle.verify_self_s": t("oracle.verify", 2),
        "simulator.run_scenario_s": t("simulator.run_scenario"),
        "simulator.self_s": t("simulator.run_scenario", 2),
        "simulator.leaks_baseline": n(counts["simulator.leaks_baseline"]),
        "simulator.leaks_enforced": n(counts["simulator.leaks_enforced"]),
        "simulator.denied_enforced": n(counts["simulator.denied_enforced"]),
        "cli.main_s": t("cli.main"),
        "cli.self_s": t("cli.main", 2),
        "cli.report_lines": n(report_lines),
        "trace.spans": n(len(spans)),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_ratio": (traced_s / untraced_s - 1.0, "ratio"),
    }


def golden_problems(workload) -> list[str]:
    """Compare the first pass's digest with the stored one for this seed."""
    if not GOLDEN.exists():
        return []
    table = json.loads(GOLDEN.read_text()).get(workload.name, {})
    want = table.get(workload.golden_key(), {}).get(str(workload.seed))
    if want is None:
        print(f"golden: no digest stored for seed {workload.seed}", file=sys.stderr)
        return []
    got = workload.digest()
    return [] if got == want else [f"golden digest {got[:12]} != stored {want[:12]}"]


def run_workload(workload, seconds: float, trace: bool) -> dict:
    """Set up, run passes for ``seconds``, check; return the result object.

    Set-up (a fresh import included) is timed several times across the
    run. With ``trace``, untraced and traced passes alternate and the
    per-layer figures are reported. End-to-end times are scaled to
    reference speed; per-layer times are not. The result also carries the
    number of untraced passes under ``passes`` and their median unscaled
    time and speed factor under ``wall_pass_s`` and ``factor``, which are
    not printed in it.
    """
    problems: list[str] = []
    setups: list[float] = []  # scaled to reference speed
    passes: list[array] = []  # each untraced pass's unit times, scaled
    walls: list[float] = []  # each untraced pass's unscaled time
    factors: list[float] = []  # each untraced pass's speed factor

    def setup():
        (mods, setup_s), factor = at_reference_speed(lambda: timed_setup(workload))
        setups.append(setup_s * factor)
        return mods

    traced = []
    attempted = failed = 0
    measured = 0.0
    mods = None
    while measured < seconds or len(passes) < MIN_PASSES or (trace and not traced):
        # Set-ups are spread evenly over the run. Their number is fixed,
        # because each import leaves some memory behind in peak_rss_mb.
        if mods is None or len(setups) * seconds < SETUP_SAMPLES * measured:
            mods = setup()
        gc.collect()  # every pass starts from a settled heap
        if trace and len(traced) < len(passes):
            tracer = Tracer(mods)
            with tracer:
                workload.setup(mods)
                setup_spans = tracer.take()[0]
                run = workload.run_pass()
            traced.append((run.seconds, run.report_lines, setup_spans, *tracer.take()))
        else:
            run, factor = at_reference_speed(workload.run_pass)
            passes.append(array("d", (factor * t for t in run.latencies)))
            walls.append(run.seconds)
            factors.append(factor)
        measured += run.seconds
        events = run.events  # the same in every pass
        attempted += run.units
        failed += len(run.errors)
        problems += workload.check_pass(run)
        # Only times are kept, 8 bytes per unit and pass, so the harness's
        # memory hardly grows with the number of passes.
        del run
    while len(setups) < SETUP_SAMPLES:
        setup()
    problems += workload.check_final()
    problems += golden_problems(workload)
    if trace:
        metrics = per_layer(traced, walls)
        write_spans(workload, traced)
    else:
        metrics = end_to_end(passes, events, setups)
    for problem in problems:
        print(f"reference check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": len(walls),
        "wall_pass_s": statistics.median(walls),
        "factor": statistics.median(factors),
    }


def write_spans(workload, traced) -> None:
    """One JSON array per line: [pass, phase, name, start, end, parent].

    ``parent`` indexes the spans of the same pass and phase, -1 for none.
    """
    path = ROOT / WORK_DIR / f"spans-{workload.name}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as handle:
        for index, (_seconds, _lines, setup_spans, spans, _counts, _live) in enumerate(traced):
            for phase, group in (("setup", setup_spans), ("pass", spans)):
                for name, start, end, parent in group:
                    handle.write(f'[{index}, "{phase}", "{name}", {start!r}, {end!r}, {parent}]\n')


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "enforcekit" / "__init__.py").is_file():
        print(f"error: no enforcekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    result = run_workload(workload, args.seconds, bool(args.trace))
    passes, wall_pass_s, factor = (result.pop(k) for k in ("passes", "wall_pass_s", "factor"))
    metrics = result["metrics"]
    for name, entry in metrics.items():
        print(f"{args.workload} {name} {entry['value']:.6g} {entry['unit']}")
    error_rate = result["failed"] / result["attempted"]
    print(f"{args.workload} error_rate {error_rate:.6g} ratio")
    print(
        f"{args.workload} {passes} passes, median {wall_pass_s:.6g} s unscaled,"
        f" median speed factor {factor:.4g}"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
