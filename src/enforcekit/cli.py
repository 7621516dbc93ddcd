"""Command line interface.

Four subcommands cover the workflow end to end:

* ``check``     validate policy/monitor files and print diagnostics
* ``enforce``   rewrite a trace file through a stack of policies
* ``simulate``  run a lifecycle scenario with and without enforcement
* ``verify``    exhaustively check a policy against a monitor up to a bound

Exit codes are part of the interface and kept distinct per subcommand; see
each ``cmd_*`` docstring. Each subcommand reports a list of ``(type,
fields)`` records, which :func:`_render` prints as text (one template per
subcommand and record type) or, with ``--format structured``, as
``type=<type> k=v ...`` lines for scripting. Errors are not records:
:func:`main` prints each one as a single ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from typing import Sequence

from .dsl import parse_document
from .enforcement import (
    DEFAULT_DEPTH_LIMIT,
    EditRecord,
    EnforcementError,
    EnforcementReport,
    ModuleRegistry,
    UnknownModuleError,
    _enforce_input,
)
from .events import (
    Trace,
    TraceParseError,
    TraceValidationError,
    _format_trace_line,
    _scan_trace,
    parse_event_literal,
    serialize_trace,
)
from .oracle import EventUniverse, brute_force_verify, validate_monitor
from .policy import Diagnostic, MonitorAutomaton, PolicySpec, Severity, validate_policy
from .simulator import (
    DeniedAcquire,
    LeakRecord,
    ScenarioError,
    ScenarioParseError,
    parse_scenario,
    run_scenario,
)

__all__ = ["main"]

VERIFY_TRACE_LIMIT = 1_000_000

# Exit codes shared by the subcommands. "Unusable" covers everything that
# stops a run before it starts: unreadable files, parse errors, bad flags.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_UNUSABLE = 2
EXIT_LEAKS_REMAIN = 3


class _CliError(Exception):
    """Abort the subcommand with a message on stderr and an exit code."""

    def __init__(self, message: str, code: int = EXIT_UNUSABLE):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        raise _CliError(f"cannot read {path}: {reason}") from err


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise _CliError(f"cannot write {path}: {err.strerror or err}") from err


def _trace_file_text(trace: Trace) -> str:
    text = serialize_trace(trace)
    return text + "\n" if text else ""


def _load(path: str, kind: type[PolicySpec] | type[MonitorAutomaton]):
    """Parse a policy or monitor file; ``kind`` is the document class wanted."""
    text = _read_text(path)
    try:
        document = parse_document(text)
    except ValueError as err:
        raise _CliError(f"{path}: {err}") from err
    if not isinstance(document, kind):
        raise _CliError(f"{path}: expected a {kind.kind}, found a {document.kind}")
    return document


def _build_registry(args: argparse.Namespace) -> ModuleRegistry:
    policies = [_load(path, PolicySpec) for path in args.policy]
    names = [policy.name for policy in policies]
    for i, name in enumerate(names):
        if names.index(name) < i:
            first = args.policy[names.index(name)]
            raise _CliError(f"{args.policy[i]}: policy {name} is already loaded from {first}")
    if args.depth < 1:
        raise _CliError(f"--depth must be a positive integer, got {args.depth}")
    registry = ModuleRegistry.from_policies(policies, insert_depth_limit=args.depth)
    for name in args.deactivate:
        try:
            registry.set_active(name, False)
        except UnknownModuleError as err:
            raise _CliError(str(err)) from err
    return registry


# Text form of each report record, per subcommand: ``check`` and
# ``simulate`` both report a ``summary`` record, in different words.
_TEXT = {
    "check": {
        "diagnostic": "{file}: {severity}: {message}".format,
        "summary": "{file}: {errors} errors, {warnings} warnings".format,
    },
    "enforce": {
        "module": "module {name}: inserted={inserted} suppressed={suppressed} "
        "passed={passed}".format,
        "edit": lambda **edit: f"edit {EditRecord(**edit)}",
        "total": "total: inserted={inserted} suppressed={suppressed} "
        "passed={passed} delta={delta:+d}".format,
    },
    "simulate": {
        "leak": lambda run, **leak: f"{run} leak: {LeakRecord(**leak)}",
        "denied": lambda run, **denial: f"{run} denied: {DeniedAcquire(**denial)}",
        "summary": "leaks: {baseline_leaks} -> {enforced_leaks}".format,
    },
    "verify": {
        "verdict": "traces checked: {traces}\nsound: {sound}\n"
        "transparent: {transparent}".format,
        "counterexample": lambda kind, trace: (
            f"counterexample ({kind}): {trace.replace(';', ' ')}"
        ),
    },
}

Record = tuple[str, dict]


def _render(records: list[Record], args: argparse.Namespace, stream=None) -> None:
    """Print ``(type, fields)`` records in the --format the user chose.

    Structured output is ``type=<type> k=v ...`` with the fields in order
    and ``None`` fields left out; text output goes through the
    subcommand's template for the record type.
    """
    templates = _TEXT[args.command]
    for kind, fields in records:
        if args.format == "text":
            line = templates[kind](**fields)
        else:
            pairs = (f"{key}={value}" for key, value in fields.items() if value is not None)
            line = " ".join([f"type={kind}", *pairs])
        print(line, file=stream)


def cmd_check(args: argparse.Namespace) -> int:
    """Validate each file; 0 clean (warnings allowed), 1 errors, 2 unreadable."""
    worst = EXIT_OK
    for path in args.files:
        text = _read_text(path)
        try:
            document = parse_document(text)
        except ValueError as err:
            diagnostics = [Diagnostic(Severity.ERROR, str(err))]
        else:
            validate = validate_policy if isinstance(document, PolicySpec) else validate_monitor
            diagnostics = validate(document)
        errors = sum(d.severity is Severity.ERROR for d in diagnostics)
        records: list[Record] = [
            ("diagnostic", {"file": path, "severity": d.severity.value, "message": d.message})
            for d in diagnostics
        ]
        records.append(
            ("summary", {"file": path, "errors": errors, "warnings": len(diagnostics) - errors})
        )
        _render(records, args)
        if errors:
            worst = EXIT_FAILURE
    return worst


def cmd_enforce(args: argparse.Namespace) -> int:
    """Rewrite a trace; the enforced trace goes to --out or stdout.

    With --out, the edit report is printed to stdout; without it the trace
    itself owns stdout and the report moves to stderr so the two streams
    never mix. Exit 0 on success (edited or not), 1 on an enforcement error
    (reported with the seq of the input event that triggered it), 2 on
    unusable inputs. The whole file is parsed first; each emitted event is
    then written at once with its running seq, as ``enforce_trace`` numbers it.
    A line outside every alphabet, with no attributes, is written back under
    its running seq without becoming an event, so the output is still byte
    for byte ``serialize_trace`` of ``enforce_trace``'s result.
    """
    registry = _build_registry(args)
    try:
        items = _scan_trace(_read_text(args.trace), registry._candidates)
    except (TraceParseError, TraceValidationError) as err:
        raise _CliError(f"{args.trace}: {err}") from err
    report = EnforcementReport.for_registry(registry)
    lines: list[str] = []
    try:
        for item in items:
            if type(item) is str:  # outside every alphabet: written back as it is
                lines.append(f"{len(lines) + 1} {item}")
                continue
            for emitted in _enforce_input(registry, item, report):
                lines.append(_format_trace_line(emitted, len(lines) + 1))
    except EnforcementError as err:
        raise _CliError(str(err), EXIT_FAILURE) from err
    text = "\n".join(lines) + "\n" if lines else ""
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    records: list[Record] = [
        ("module", {"name": name, **asdict(counts)}) for name, counts in report.counts.items()
    ]
    records += [("edit", {"seq": r.seq, "module": r.module, "action": r.action, "event": r.event})
                for r in report.records]
    records.append(("total", {**asdict(report.total), "delta": report.delta}))
    _render(records, args, sys.stdout if args.out else sys.stderr)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run a scenario unenforced and enforced, then compare leak counts.

    Exit 0 when enforcement removes every leak, 3 when leaks remain in the
    enforced run, 1 on a scenario or enforcement error (reported with the
    failing step), 2 on unusable inputs.
    """
    registry = _build_registry(args)
    try:
        scenario = parse_scenario(
            _read_text(args.scenario),
            default_name=os.path.splitext(os.path.basename(args.scenario))[0],
        )
    except ScenarioParseError as err:
        raise _CliError(f"{args.scenario}: {err}") from err
    try:
        baseline_trace, baseline = run_scenario(scenario)
        enforced_trace, enforced = run_scenario(scenario, registry)
    except ScenarioError as err:
        raise _CliError(str(err), EXIT_FAILURE) from err
    if args.out:
        _write_text(args.out, _trace_file_text(enforced_trace))
        _write_text(args.out + ".unenforced", _trace_file_text(baseline_trace))
    runs = (("baseline", baseline), ("enforced", enforced))
    records: list[Record] = [
        (kind, {"run": run, **asdict(item)})
        for run, report in runs
        for kind, items in (("leak", report.leaks), ("denied", report.denied))
        for item in items
    ]
    records.append(("summary", {
        "baseline_leaks": len(baseline.leaks),
        "enforced_leaks": len(enforced.leaks),
        "baseline_denied": len(baseline.denied),
        "enforced_denied": len(enforced.denied),
    }))
    _render(records, args)
    return EXIT_LEAKS_REMAIN if enforced.leaks else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Exhaustively verify a policy against a monitor over a bounded universe.

    Exit 0 when the policy is sound and transparent up to the bound, 1 when
    either fails (counterexamples are printed), 2 when the inputs are
    unusable, the universe exceeds the enumeration budget, or the policy
    cannot enforce a trace of the universe (named with the failing seq).
    """
    policy = _load(args.policy, PolicySpec)
    monitor = _load(args.monitor, MonitorAutomaton)
    for source, diagnostics in (
        (args.policy, validate_policy(policy)),
        (args.monitor, validate_monitor(monitor)),
    ):
        bad = [d for d in diagnostics if d.severity is Severity.ERROR]
        if bad:
            raise _CliError(f"{source}: {bad[0].message}")
    try:
        alphabet = tuple(parse_event_literal(text) for text in args.event)
        universe = EventUniverse(alphabet, args.max_len)
    except ValueError as err:
        raise _CliError(str(err)) from err
    # Over two or more events the universe holds at least 2**max_len traces.
    # When that bound is over the budget, skip the exact count: it can have
    # millions of digits.
    many = len(alphabet) > 1 and args.max_len >= VERIFY_TRACE_LIMIT.bit_length()
    size = f"at least 2**{args.max_len}" if many else universe.size()
    if many or size > VERIFY_TRACE_LIMIT:
        raise _CliError(
            f"universe holds {size} traces, over the {VERIFY_TRACE_LIMIT} budget; "
            f"shrink the alphabet or --max-len"
        )
    try:
        verdict = brute_force_verify(policy, monitor, universe)
    except EnforcementError as err:
        raise _CliError(f"cannot enforce a trace of the universe: {err}") from err
    yes_no = {True: "yes", False: "no"}
    records: list[Record] = [("verdict", {
        "traces": verdict.traces_checked,
        "sound": yes_no[verdict.sound],
        "transparent": yes_no[verdict.transparent],
    })]
    for kind, counterexamples in (
        ("soundness", verdict.sound_counterexamples),
        ("transparency", verdict.transparent_counterexamples),
    ):
        for trace in counterexamples:
            literals = ";".join(event.literal() for event in trace)
            records.append(("counterexample", {"kind": kind, "trace": literals}))
    _render(records, args)
    return EXIT_OK if verdict.ok else EXIT_FAILURE


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report style: human-readable text or key=value records",
    )


def _add_registry_flags(parser: argparse.ArgumentParser, *, require_policy: bool) -> None:
    parser.add_argument(
        "-p",
        "--policy",
        action="append",
        required=require_policy,
        default=[],
        metavar="FILE",
        help="policy file; repeat to stack the modules first to last",
    )
    parser.add_argument(
        "--deactivate",
        action="append",
        default=[],
        metavar="NAME",
        help="start with the named module deactivated (repeatable)",
    )
    parser.add_argument(
        "--depth",
        type=int,
        default=DEFAULT_DEPTH_LIMIT,
        metavar="N",
        help=f"insertion depth limit (default {DEFAULT_DEPTH_LIMIT})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enforcekit",
        description="Validate, enforce, simulate and verify runtime policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate policy and monitor files")
    check.add_argument("files", nargs="+", metavar="FILE")
    _add_format_flag(check)
    check.set_defaults(func=cmd_check)

    enforce = sub.add_parser("enforce", help="rewrite a trace through policies")
    _add_registry_flags(enforce, require_policy=True)
    enforce.add_argument("trace", metavar="TRACE", help="input trace file")
    enforce.add_argument("-o", "--out", metavar="FILE", help="write the enforced trace here")
    _add_format_flag(enforce)
    enforce.set_defaults(func=cmd_enforce)

    simulate = sub.add_parser("simulate", help="run a lifecycle scenario")
    _add_registry_flags(simulate, require_policy=False)
    simulate.add_argument("scenario", metavar="SCENARIO", help="scenario script")
    simulate.add_argument(
        "-o",
        "--out",
        metavar="FILE",
        help="write the enforced trace here and the baseline to FILE.unenforced",
    )
    _add_format_flag(simulate)
    simulate.set_defaults(func=cmd_simulate)

    verify = sub.add_parser("verify", help="brute-force soundness and transparency")
    verify.add_argument("-p", "--policy", required=True, metavar="FILE")
    verify.add_argument("-m", "--monitor", required=True, metavar="FILE")
    verify.add_argument(
        "-e",
        "--event",
        action="append",
        required=True,
        metavar="LITERAL",
        help="alphabet event as kind:name@component{k=v,...} (repeatable)",
    )
    verify.add_argument(
        "--max-len",
        type=int,
        default=6,
        metavar="N",
        help="enumerate traces up to this length (default 6)",
    )
    _add_format_flag(verify)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a buffered write fails here, not at exit
    except _CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except OSError as err:  # files fail as a _CliError: this is stdout
        print(f"error: cannot write standard output: {err.strerror or err}", file=sys.stderr)
        return EXIT_UNUSABLE
    return code


if __name__ == "__main__":
    sys.exit(main())
