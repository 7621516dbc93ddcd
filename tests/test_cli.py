"""Command line interface: exit codes, output streams, report formats."""

import contextlib
import dataclasses
import errno
import io
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from enforcekit import (
    EnforcementError,
    Event,
    ModuleRegistry,
    Trace,
    cli,
    enforce_trace,
    enforcement,
    events,
    serialize_policy,
    serialize_trace,
)
from enforcekit.enforcement import DEFAULT_DEPTH_LIMIT

from conftest import CATALOG, CATALOG_MONITORS, CATALOG_POLICIES, ROOT, SCENARIOS
from test_enforcement import _STACK_EVENTS, _STACKS

CAMERA_POLICY = str(CATALOG / "camera_release.policy")
CAMERA_MONITOR = str(CATALOG / "camera.monitor")
OSGI_POLICY = str(CATALOG / "osgi_unregister.policy")
PLUMERIA = str(SCENARIOS / "plumeria-leak.scn")

CAMERA_EVENTS = [
    "api:Camera.open@A1",
    "api:Camera.release@A1",
    "cb:onPause@A1",
    "cb:onResume@A1",
]


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _verify_args(policy: str, *, max_len: int = 3, events=CAMERA_EVENTS) -> list[str]:
    args = ["verify", "-p", policy, "-m", CAMERA_MONITOR, "--max-len", str(max_len)]
    for literal in events:
        args += ["-e", literal]
    return args


@pytest.fixture
def leaky_trace(tmp_path):
    path = tmp_path / "leaky.trace"
    path.write_text("1 api:Camera.open@A1\n2 cb:onPause@A1\n")
    return str(path)


@pytest.fixture
def timer_policy(tmp_path):
    """A per-component timer policy whose insertion needs an unbound ``$t``."""
    path = tmp_path / "timer.policy"
    path.write_text(
        "policy T\ninstantiate per-component\nalphabet api setTimer, cb unmount\n"
        "initial CLEAR\nstate CLEAR:\n  on api setTimer -> SET emit [$in]\n"
        "state SET:\n  on cb unmount -> CLEAR emit [api clearTimer{timer=$t}, $in]\nend\n"
    )
    return str(path)


@pytest.fixture
def chained_policies(tmp_path):
    """Two policies whose insertions feed each other: p0 -> p1 -> p2."""
    paths = []
    for i in range(2):
        path = tmp_path / f"link{i}.policy"
        path.write_text(
            f"policy L{i}\n"
            f"alphabet api p{i}\n"
            f"initial S\n"
            f"state S:\n"
            f"  on api p{i} -> S emit [api p{i + 1}, $in]\n"
            f"end\n"
        )
        paths.append(str(path))
    return paths


class TestCheck:
    def test_clean_catalog_files(self, capsys):
        files = [str(CATALOG / name) for name in CATALOG_POLICIES + CATALOG_MONITORS]
        code, out, err = _run(capsys, "check", *files)
        assert code == 0
        assert err == ""
        for path in files:
            assert f"{path}: 0 errors, 0 warnings" in out

    def test_warnings_do_not_fail_the_check(self, capsys, tmp_path):
        path = tmp_path / "zombie.policy"
        path.write_text(
            "policy P\nalphabet cb a\ninitial S\n"
            "state S:\n  on cb a -> S emit [$in]\nstate Z:\nend\n"
        )
        code, out, _ = _run(capsys, "check", str(path))
        assert code == 0
        assert f"{path}: warning: state Z is unreachable from initial state S" in out
        assert f"{path}: 0 errors, 1 warnings" in out

    def test_parse_errors_fail_the_check(self, capsys, tmp_path):
        path = tmp_path / "broken.policy"
        path.write_text("policy P\ninitial S\nstate S:\n")  # no end
        code, out, _ = _run(capsys, "check", str(path))
        assert code == 1
        assert f"{path}: error: " in out
        assert f"{path}: 1 errors, 0 warnings" in out

    def test_nondeterminism_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "fork.policy"
        path.write_text(
            "policy P\nalphabet cb a\ninitial S\n"
            "state S:\n  on cb a -> S emit [$in]\n  on cb a -> S emit [$in]\nend\n"
        )
        code, out, _ = _run(capsys, "check", str(path))
        assert code == 1
        assert f"{path}: 1 errors, 0 warnings" in out

    def test_one_bad_file_fails_the_whole_run(self, capsys, tmp_path):
        bad = tmp_path / "bad.policy"
        bad.write_text("nonsense\n")
        code, out, _ = _run(capsys, "check", CAMERA_POLICY, str(bad))
        assert code == 1
        assert f"{CAMERA_POLICY}: 0 errors, 0 warnings" in out
        assert f"{bad}: 1 errors, 0 warnings" in out

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = _run(capsys, "check", str(tmp_path / "missing.policy"))
        assert code == 2
        assert "error: cannot read" in err

    def test_structured_summary(self, capsys):
        code, out, _ = _run(capsys, "check", "--format", "structured", CAMERA_POLICY)
        assert code == 0
        assert f"type=summary file={CAMERA_POLICY} errors=0 warnings=0" in out


class TestEnforce:
    def test_trace_to_stdout_report_to_stderr(self, capsys, leaky_trace):
        code, out, err = _run(capsys, "enforce", "-p", CAMERA_POLICY, leaky_trace)
        assert code == 0
        assert out.splitlines() == [
            "1 api:Camera.open@A1",
            "2 !api:Camera.release@A1",
            "3 cb:onPause@A1",
        ]
        assert "module CameraRelease: inserted=1 suppressed=0 passed=2" in err
        assert "total: inserted=1 suppressed=0 passed=2 delta=+1" in err

    def test_out_file_moves_the_report_to_stdout(self, capsys, leaky_trace, tmp_path):
        out_path = tmp_path / "enforced.trace"
        code, out, err = _run(
            capsys, "enforce", "-p", CAMERA_POLICY, leaky_trace, "-o", str(out_path)
        )
        assert code == 0
        assert err == ""
        assert "total: inserted=1 suppressed=0 passed=2 delta=+1" in out
        assert out_path.read_text() == (
            "1 api:Camera.open@A1\n2 !api:Camera.release@A1\n3 cb:onPause@A1\n"
        )

    def test_an_out_file_in_a_missing_directory_is_unusable(self, capsys, leaky_trace, tmp_path):
        out_path = tmp_path / "missing" / "enforced.trace"
        code, out, err = _run(
            capsys, "enforce", "-p", CAMERA_POLICY, leaky_trace, "-o", str(out_path)
        )
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {out_path}: {os.strerror(errno.ENOENT)}\n"

    def test_the_trace_is_written_in_one_pass(self, capsys, leaky_trace, monkeypatch):
        # No renumbered copy of the enforced trace is built on the way out.
        def refuse(*args, **kwargs):
            raise AssertionError("enforce built a second trace")

        monkeypatch.setattr(events.Trace, "renumbered", refuse)
        for name in ("_trace_file_text", "serialize_trace"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(enforcement, "enforce_trace", refuse)
        code, out, _ = _run(capsys, "enforce", "-p", CAMERA_POLICY, leaky_trace)
        assert code == 0
        assert out == "1 api:Camera.open@A1\n2 !api:Camera.release@A1\n3 cb:onPause@A1\n"

    def test_edit_records_name_the_triggering_seq(self, capsys, leaky_trace):
        _, _, err = _run(capsys, "enforce", "-p", CAMERA_POLICY, leaky_trace)
        assert (
            "edit seq=2 module=CameraRelease action=insert "
            "event=!api:Camera.release@A1" in err
        )

    def test_structured_report(self, capsys, leaky_trace, tmp_path):
        out_path = tmp_path / "enforced.trace"
        code, out, _ = _run(
            capsys,
            "enforce",
            "--format",
            "structured",
            "-p",
            CAMERA_POLICY,
            leaky_trace,
            "-o",
            str(out_path),
        )
        assert code == 0
        assert "type=module name=CameraRelease inserted=1 suppressed=0 passed=2" in out
        assert "type=total inserted=1 suppressed=0 passed=2 delta=1" in out

    def test_empty_trace_writes_an_empty_file(self, capsys, tmp_path):
        trace = tmp_path / "empty.trace"
        trace.write_text("# nothing happens\n")
        out_path = tmp_path / "enforced.trace"
        code, _, _ = _run(
            capsys, "enforce", "-p", CAMERA_POLICY, str(trace), "-o", str(out_path)
        )
        assert code == 0
        assert out_path.read_text() == ""

    def test_deactivated_module_passes_the_trace_through(self, capsys, leaky_trace):
        code, out, _ = _run(
            capsys,
            "enforce",
            "-p",
            CAMERA_POLICY,
            "--deactivate",
            "CameraRelease",
            leaky_trace,
        )
        assert code == 0
        assert out.splitlines() == ["1 api:Camera.open@A1", "2 cb:onPause@A1"]

    def test_deactivating_an_unknown_module(self, capsys, leaky_trace):
        code, _, err = _run(
            capsys, "enforce", "-p", CAMERA_POLICY, "--deactivate", "Ghost", leaky_trace
        )
        assert code == 2
        assert "no module named 'Ghost' in the registry" in err

    def test_depth_overflow_is_an_enforcement_failure(
        self, capsys, tmp_path, chained_policies
    ):
        trace = tmp_path / "chain.trace"
        trace.write_text("1 api:p0@C1\n")
        first, second = chained_policies
        code, _, err = _run(
            capsys, "enforce", "-p", first, "-p", second, "--depth", "1", str(trace)
        )
        assert code == 1
        assert err == "error: seq 1: insertion depth limit 1 exceeded (module chain: L0 -> L1)\n"

    def test_unbound_binder_reports_the_seq(self, capsys, tmp_path, timer_policy):
        trace = tmp_path / "timer.trace"
        trace.write_text("1 api:setTimer@C1\n2 cb:unmount@C1\n")
        code, out, err = _run(capsys, "enforce", "-p", timer_policy, str(trace))
        assert code == 1
        assert out == ""
        assert err.startswith("error: seq 2: unbound binder '$t' in synthesized event ")

    def test_a_bad_line_is_found_before_enforcement_fails(self, capsys, tmp_path, timer_policy):
        # Seq 2 cannot be enforced (see above), but the whole file is
        # parsed first: line 3 makes the run unusable, with no output.
        trace = tmp_path / "timer.trace"
        trace.write_text("1 api:setTimer@C1\n2 cb:unmount@C1\n3 wibble\n")
        code, out, err = _run(capsys, "enforce", "-p", timer_policy, str(trace))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {trace}: line 3, column ")
        out_path = tmp_path / "enforced.trace"
        code, out, err = _run(
            capsys, "enforce", "-p", timer_policy, str(trace), "-o", str(out_path)
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {trace}: line 3, column ")
        assert not out_path.exists()

    def test_depth_flag_raises_the_limit(self, capsys, tmp_path, chained_policies):
        trace = tmp_path / "chain.trace"
        trace.write_text("1 api:p0@C1\n")
        first, second = chained_policies
        code, out, _ = _run(
            capsys, "enforce", "-p", first, "-p", second, "--depth", "2", str(trace)
        )
        assert code == 0
        assert out.splitlines() == ["1 !api:p2@C1", "2 !api:p1@C1", "3 api:p0@C1"]

    def test_depth_must_be_positive(self, capsys, leaky_trace):
        code, out, err = _run(capsys, "enforce", "-p", CAMERA_POLICY, "--depth", "0", leaky_trace)
        assert (code, out) == (2, "")
        assert err == "error: --depth must be a positive integer, got 0\n"

    def test_missing_binder_attribute_reports_the_seq(self, capsys, tmp_path):
        trace = tmp_path / "bad.trace"
        trace.write_text("1 api:registerService@B1\n")
        code, _, err = _run(capsys, "enforce", "-p", OSGI_POLICY, str(trace))
        assert code == 1
        assert "error: seq 1: " in err
        assert "lacks binder attribute 'service'" in err

    def test_unparseable_trace(self, capsys, tmp_path):
        trace = tmp_path / "bad.trace"
        trace.write_text("1 wibble\n")
        code, _, err = _run(capsys, "enforce", "-p", CAMERA_POLICY, str(trace))
        assert code == 2
        assert f"error: {trace}: " in err

    @pytest.mark.parametrize("seq", ["\u00b2", "\u0663"])
    def test_non_ascii_seq_digit(self, capsys, tmp_path, seq):
        trace = tmp_path / "bad.trace"
        trace.write_text(f"{seq} api:Camera.open@A1\n", encoding="utf-8")
        code, out, err = _run(capsys, "enforce", "-p", CAMERA_POLICY, str(trace))
        assert code == 2
        assert out == ""
        assert err == f"error: {trace}: line 1, column 1: expected sequence number\n"

    def test_overlong_seq(self, capsys, tmp_path):
        # More digits than int() converts by default: an error, not a traceback.
        trace = tmp_path / "bad.trace"
        trace.write_text("9" * 5000 + " api:a@A1\n")
        code, out, err = _run(capsys, "enforce", "-p", CAMERA_POLICY, str(trace))
        assert code == 2
        assert out == ""
        assert err == f"error: {trace}: line 1, column 1: sequence number is too long\n"

    def test_lines_outside_every_alphabet_build_no_event(self, capsys, tmp_path, monkeypatch):
        enforce_input = cli._enforce_input

        def only_seen(registry, event, report):
            if (event.kind, event.name) not in registry._candidates:
                raise AssertionError(f"{event.literal()} went through the enforcer")
            return enforce_input(registry, event, report)

        monkeypatch.setattr(cli, "_enforce_input", only_seen)
        trace = tmp_path / "mixed.trace"
        trace.write_text(
            "1 api:Log.d@A1\n2 api:Camera.open@A1\n# a comment\n  3 !cb:onTrimMemory@A1\t\n"
            "4 cb:onPause@A1\n\n7 api:Log.d@A2\n"
        )
        code, out, err = _run(capsys, "enforce", "-p", CAMERA_POLICY, str(trace))
        assert code == 0
        assert out == (
            "1 api:Log.d@A1\n2 api:Camera.open@A1\n3 !cb:onTrimMemory@A1\n"
            "4 !api:Camera.release@A1\n5 cb:onPause@A1\n6 api:Log.d@A2\n"
        )
        assert "total: inserted=1 suppressed=0 passed=2 delta=+1" in err

    @pytest.mark.parametrize("first, second", [
        ("api:Log.d@A1", "api:Camera.open@A1"),
        ("api:Camera.open@A1", "api:Log.d@A1"),
    ])
    def test_seq_order_is_checked_across_lanes(self, capsys, tmp_path, first, second):
        trace = tmp_path / "order.trace"
        trace.write_text(f"5 {first}\n4 {second}\n")
        code, out, err = _run(capsys, "enforce", "-p", CAMERA_POLICY, str(trace))
        assert (code, out) == (2, "")
        assert err == f"error: {trace}: non-monotone seq at line 2\n"

    @pytest.mark.parametrize("line, error", [
        ("  " + "9" * 5000 + " api:Log.d@A1", "line 2, column 3: sequence number is too long"),
        ("2 api:Log.d@A1 tag=a tag=b", "line 2, column 22: duplicate attribute 'tag'"),
    ], ids=["overlong-seq", "repeated-key"])
    def test_a_bad_line_outside_every_alphabet_keeps_its_error(
        self, capsys, tmp_path, line, error
    ):
        trace = tmp_path / "bad.trace"
        trace.write_text(f"1 api:Camera.open@A1\n{line}\n")
        code, out, err = _run(capsys, "enforce", "-p", CAMERA_POLICY, str(trace))
        assert (code, out) == (2, "")
        assert err == f"error: {trace}: {error}\n"

    def test_monitor_file_is_not_a_policy(self, capsys, leaky_trace):
        code, _, err = _run(capsys, "enforce", "-p", CAMERA_MONITOR, leaky_trace)
        assert code == 2
        assert "expected a policy, found a monitor" in err


class TestSimulate:
    def test_without_policies_the_leak_stays(self, capsys):
        code, out, _ = _run(capsys, "simulate", PLUMERIA)
        assert code == 3
        assert (
            "baseline leak: component=A1 state=paused resource=Camera "
            "at step seq 6" in out
        )
        assert "baseline denied: component=A2 resource=Camera held by A1 at seq 7" in out
        assert "enforced leak: component=A1" in out
        assert out.rstrip().endswith("leaks: 1 -> 1")

    def test_camera_policy_removes_the_leak(self, capsys, tmp_path):
        out_path = tmp_path / "plumeria.trace"
        code, out, _ = _run(
            capsys, "simulate", "-p", CAMERA_POLICY, PLUMERIA, "-o", str(out_path)
        )
        assert code == 0
        assert "enforced leak:" not in out
        assert "enforced denied:" not in out
        assert out.rstrip().endswith("leaks: 1 -> 0")
        enforced = out_path.read_text().splitlines()
        baseline = (tmp_path / "plumeria.trace.unenforced").read_text().splitlines()
        assert "6 !api:Camera.release@A1" in enforced
        assert not any("!" in line for line in baseline)

    def test_deactivated_module_reproduces_the_baseline(self, capsys, tmp_path):
        out_path = tmp_path / "off.trace"
        code, out, _ = _run(
            capsys,
            "simulate",
            "-p",
            CAMERA_POLICY,
            "--deactivate",
            "CameraRelease",
            PLUMERIA,
            "-o",
            str(out_path),
        )
        assert code == 3
        assert out.rstrip().endswith("leaks: 1 -> 1")
        assert out_path.read_bytes() == (tmp_path / "off.trace.unenforced").read_bytes()

    def test_structured_output_includes_keys_and_counts(self, capsys):
        code, out, _ = _run(
            capsys,
            "simulate",
            "--format",
            "structured",
            str(SCENARIOS / "osgi-stop-leak.scn"),
        )
        assert code == 3
        assert (
            "type=leak run=baseline component=B1 state=stopped "
            "resource=service key=S1 seq=4" in out
        )
        assert (
            "type=summary baseline_leaks=2 enforced_leaks=2 "
            "baseline_denied=0 enforced_denied=0" in out
        )

    def test_scenario_errors_exit_one(self, capsys, tmp_path):
        scn = tmp_path / "bad.scn"
        scn.write_text("lifecycle activity\ncomponent A1\nlc A1 onResume\n")
        code, _, err = _run(capsys, "simulate", str(scn))
        assert code == 1
        assert "error: step 1: onResume not enabled in state initial" in err

    def test_enforcement_errors_name_the_step(self, capsys, tmp_path, chained_policies):
        scn = tmp_path / "chain.scn"
        scn.write_text("lifecycle activity\ncomponent A1\nlc A1 onCreate\ncall A1 p0\n")
        first, second = chained_policies
        code, _, err = _run(
            capsys, "simulate", "-p", first, "-p", second, "--depth", "1", str(scn)
        )
        assert code == 1
        assert err == (
            "error: step 2: insertion depth limit 1 exceeded (module chain: L0 -> L1)\n"
        )

    def test_unparseable_scenario_exits_two(self, capsys, tmp_path):
        scn = tmp_path / "bad.scn"
        scn.write_text("lifecycle activity\nwarp A1\n")
        code, _, err = _run(capsys, "simulate", str(scn))
        assert code == 2
        assert f"error: {scn}: line 2: " in err

    def test_bad_scenario_identifier_exits_two(self, capsys, tmp_path):
        scn = tmp_path / "bad.scn"
        scn.write_text("lifecycle activity\ncomponent A1\ncall A1 Camera!open\n")
        code, _, err = _run(capsys, "simulate", str(scn))
        assert code == 2
        assert err.startswith(f"error: {scn}: line 3: event name 'Camera!open'")

    def test_duplicate_scenario_attribute_exits_two(self, capsys, tmp_path):
        scn = tmp_path / "dup.scn"
        scn.write_text(
            "lifecycle react-component\ncomponent C1\n"
            "lc C1 componentDidMount\ncall C1 setTimer timer=t1 timer=t2\n"
        )
        code, _, err = _run(capsys, "simulate", str(scn))
        assert code == 2
        assert err == f"error: {scn}: line 4: duplicate attribute 'timer'\n"


class TestVerify:
    def test_camera_policy_is_verified(self, capsys):
        code, out, _ = _run(capsys, *_verify_args(CAMERA_POLICY))
        assert code == 0
        assert "traces checked: 85" in out
        assert "sound: yes" in out
        assert "transparent: yes" in out

    def test_identity_policy_fails_with_a_counterexample(self, capsys, tmp_path):
        path = tmp_path / "identity.policy"
        path.write_text(
            "policy Identity\n"
            "alphabet api Camera.open, api Camera.release, cb onPause\n"
            "initial S\nstate S:\nend\n"
        )
        code, out, _ = _run(capsys, *_verify_args(str(path)))
        assert code == 1
        assert "sound: no" in out
        assert "transparent: yes" in out
        first = next(l for l in out.splitlines() if l.startswith("counterexample"))
        assert first == (
            "counterexample (soundness): api:Camera.open@A1 cb:onPause@A1"
        )

    def test_structured_verdict(self, capsys):
        code, out, _ = _run(capsys, *_verify_args(CAMERA_POLICY), "--format", "structured")
        assert code == 0
        assert "type=verdict traces=85 sound=yes transparent=yes" in out

    @pytest.mark.parametrize(
        "events, max_len, held",
        [
            (CAMERA_EVENTS, 10, "1398101"),
            # Long bounds are refused from 2**max_len, before the exact
            # count, which would have thousands of digits.
            (CAMERA_EVENTS[::2], 20000, "at least 2**20000"),
            (CAMERA_EVENTS[::2], 100000, "at least 2**100000"),
            (CAMERA_EVENTS[::2], 1000000000, "at least 2**1000000000"),
            (CAMERA_EVENTS[:1], 1000000000, "1000000001"),
        ],
    )
    def test_budget_guard(self, capsys, events, max_len, held):
        argv = _verify_args(CAMERA_POLICY, max_len=max_len, events=events)
        start = time.perf_counter()
        code, out, err = _run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (
            f"error: universe holds {held} traces, over the 1000000 budget; "
            "shrink the alphabet or --max-len\n"
        )

    def test_unroutable_universe_event_is_unusable(self, capsys, monkeypatch):
        # registerService without its service attribute cannot be keyed.
        monkeypatch.chdir(ROOT)
        code, _, err = _run(
            capsys,
            *"verify -p catalog/osgi_unregister.policy -m catalog/osgi.monitor "
            "-e api:registerService@B1 -e cb:stop@B1".split(),
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "seq 1: event api:registerService@B1" in err
        assert "Traceback" not in err

    def test_bad_event_literal(self, capsys):
        code, _, err = _run(
            capsys,
            "verify",
            "-p",
            CAMERA_POLICY,
            "-m",
            CAMERA_MONITOR,
            "-e",
            "not a literal",
        )
        assert code == 2
        assert "error: " in err

    def test_duplicate_literal_attribute_exits_two(self, capsys):
        literal = "api:a@A1{x=1,x=2}"
        code, out, err = _run(
            capsys, "verify", "-p", CAMERA_POLICY, "-m", CAMERA_MONITOR, "-e", literal
        )
        assert code == 2
        assert out == ""
        assert err == f"error: bad event literal '{literal}': duplicate attribute 'x'\n"

    def test_invalid_policy_is_rejected_before_the_scan(self, capsys, tmp_path):
        path = tmp_path / "fork.policy"
        path.write_text(
            "policy P\nalphabet cb onPause\ninitial S\n"
            "state S:\n  on cb onPause -> S emit [$in]\n  on cb onPause -> S emit []\nend\n"
        )
        code, _, err = _run(capsys, *_verify_args(str(path)))
        assert code == 2
        assert "can match the same event" in err

    def test_policy_file_is_not_a_monitor(self, capsys):
        code, _, err = _run(
            capsys,
            "verify",
            "-p",
            CAMERA_POLICY,
            "-m",
            CAMERA_POLICY,
            "-e",
            "cb:onPause@A1",
        )
        assert code == 2
        assert "expected a monitor, found a policy" in err

    def test_max_len_must_be_positive(self, capsys):
        code, _, err = _run(capsys, *_verify_args(CAMERA_POLICY, max_len=0))
        assert code == 2
        assert "max_len must be at least 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "BIN"],
        ["enforce", "-p", "BIN", PLUMERIA],
        ["enforce", "-p", CAMERA_POLICY, "BIN"],
        ["simulate", "BIN"],
        ["verify", "-p", CAMERA_POLICY, "-m", "BIN", "-e", "cb:onPause@A1"],
    ],
    ids=["check", "enforce-policy", "enforce-trace", "simulate-scenario", "verify-monitor"],
)
def test_non_utf8_input_is_unreadable(capsys, tmp_path, argv):
    path = tmp_path / "bin"
    path.write_bytes(b"policy P\n\xff\n")
    code, out, err = _run(capsys, *(str(path) if arg == "BIN" else arg for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")


class _FullStdout:
    """A stdout on a full disk: ``write`` fails, or only ``flush`` does."""

    def __init__(self, failing: str):
        self.failing = failing

    def _fail(self, *args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        if self.failing == "write":
            self._fail()
        return len(text)

    def flush(self):
        if self.failing == "flush":
            self._fail()


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize(
    "argv",
    [["enforce", "-p", CAMERA_POLICY, "TRACE"], ["check", CAMERA_POLICY]],
    ids=["enforce", "check"],
)
def test_a_failed_write_to_stdout_is_unusable_output(
    capsys, monkeypatch, leaky_trace, argv, failing
):
    monkeypatch.setattr(sys, "stdout", _FullStdout(failing))
    code = cli.main([leaky_trace if arg == "TRACE" else arg for arg in argv])
    assert code == 2
    assert capsys.readouterr().err.endswith(
        f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"
    )


def _library_report(report, style: str) -> str:
    """The report ``enforce`` prints for ``report``, in ``--format style``."""
    total = report.total
    if style == "text":
        lines = [
            f"module {name}: inserted={c.inserted} suppressed={c.suppressed} passed={c.passed}"
            for name, c in report.counts.items()
        ]
        lines += [f"edit {record}" for record in report.records]
        lines.append(
            f"total: inserted={total.inserted} suppressed={total.suppressed} "
            f"passed={total.passed} delta={report.delta:+d}"
        )
    else:
        lines = [
            f"type=module name={name} inserted={c.inserted} suppressed={c.suppressed} "
            f"passed={c.passed}"
            for name, c in report.counts.items()
        ]
        lines += [
            f"type=edit seq={r.seq} module={r.module} action={r.action} event={r.event}"
            for r in report.records
        ]
        lines.append(
            f"type=total inserted={total.inserted} suppressed={total.suppressed} "
            f"passed={total.passed} delta={report.delta}"
        )
    return "".join(line + "\n" for line in lines)


# Events outside every drawn stack's alphabet, which `enforce` writes back
# without building an event, unless they carry attributes.
_UNSEEN_EVENTS = st.sampled_from([
    Event.api("Log.d", "C1"),
    Event.api("Log.d", "C2", tag="net", level="3"),
    dataclasses.replace(Event.api("Log.d", "C1"), synthetic=True),
    dataclasses.replace(Event.cb("onTrimMemory", "C2", level="5", app="x"), synthetic=True),
    Event.cb("onTrimMemory", "C1"),
])
# Around each line: what comes before it, its indent, its trailing blanks,
# and whether its attributes are written in reverse order.
_LINE_DRESS = st.tuples(
    st.sampled_from(["", "", "# a comment\n", "\n", "  \t\n", "\t# indented\n"]),
    st.sampled_from(["", "", " ", "\t "]),
    st.sampled_from(["", "", " ", " \t"]),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(
    specs=_STACKS,
    events_=st.lists(st.one_of(_STACK_EVENTS, _UNSEEN_EVENTS), max_size=8),
    gaps=st.lists(st.integers(1, 4), min_size=8, max_size=8),
    dress=st.lists(_LINE_DRESS, min_size=8, max_size=8),
)
def test_enforce_writes_what_the_library_enforces(specs, events_, gaps, dress):
    specs = [dataclasses.replace(spec, name=f"M{i}") for i, spec in enumerate(specs)]
    seqs, seq = [], 0
    for gap in gaps[: len(events_)]:  # seqs that leave gaps, such as 1, 5, 6
        seq += gap
        seqs.append(seq)
    trace = Trace(tuple(dataclasses.replace(e, seq=s) for e, s in zip(events_, seqs)))
    written = ""
    for line, (before, indent, blanks, reverse) in zip(serialize_trace(trace).splitlines(), dress):
        seq_text, event_text, *attrs = line.split(" ")
        line = " ".join([seq_text, event_text, *(attrs[::-1] if reverse else attrs)])
        written += f"{before}{indent}{line}{blanks}\n"
    with tempfile.TemporaryDirectory() as tmp:
        policy_args = []
        for spec in specs:
            path = os.path.join(tmp, f"{spec.name}.policy")
            Path(path).write_text(serialize_policy(spec))
            policy_args += ["-p", path]
        trace_path = os.path.join(tmp, "input.trace")
        Path(trace_path).write_text(written + dress[-1][0])
        for depth in (DEFAULT_DEPTH_LIMIT, 1):
            registry = ModuleRegistry.from_policies(specs, insert_depth_limit=depth)
            try:
                enforced, report = enforce_trace(registry, trace)
            except EnforcementError as failure:
                enforced, report = None, failure
            for style, to_file in itertools.product(("text", "structured"), (False, True)):
                out_path = os.path.join(tmp, f"out-{depth}-{style}-{to_file}.trace")
                argv = ["enforce", *policy_args, trace_path, "--format", style]
                argv += ["--depth", "1"] if depth == 1 else []
                argv += ["-o", out_path] if to_file else []
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                if enforced is None:
                    assert not os.path.exists(out_path)
                    expected = 1, "", f"error: {report}\n"
                else:
                    text = serialize_trace(enforced)
                    trace_text = text + "\n" if text else ""
                    report_text = _library_report(report, style)
                    if to_file:
                        assert Path(out_path).read_text() == trace_text
                        expected = 0, report_text, ""
                    else:
                        expected = 0, trace_text, report_text
                assert (code, out.getvalue(), err.getvalue()) == expected


@pytest.mark.parametrize("command", ["enforce", "simulate"])
def test_a_policy_loaded_twice_is_unusable_input(capsys, tmp_path, command):
    copy = tmp_path / "copy.policy"
    copy.write_text(Path(CAMERA_POLICY).read_text())
    empty = tmp_path / "empty.trace"
    empty.write_text("")
    target = str(empty) if command == "enforce" else PLUMERIA
    code, out, err = _run(capsys, command, "-p", CAMERA_POLICY, "-p", str(copy), target)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {copy}: policy CameraRelease is already loaded from {CAMERA_POLICY}\n"
    )


# Exit codes of the README table, per subcommand.
DOCUMENTED_EXITS = {
    "check": {0, 1, 2},
    "enforce": {0, 1, 2},
    "simulate": {0, 1, 2, 3},
    "verify": {0, 1, 2},
}
POLICY_TEXTS = [(CATALOG / name).read_text() for name in CATALOG_POLICIES]
MONITOR_TEXTS = [(CATALOG / name).read_text() for name in CATALOG_MONITORS]
SCENARIO_TEXTS = [path.read_text() for path in sorted(SCENARIOS.glob("*.scn"))]
TRACE_TEXTS = [
    "1 api:Camera.open@A1\n2 cb:onPause@A1\n",
    "1 api:registerService@B1 service=S1\n2 api:setTimer@C1 timer=T1\n"
    "3 cb:stop@B1\n4 cb:componentWillUnmount@C1\n",
]
DAMAGE = [
    b"\xff", b"\xc3", b"!", b"$x", b"{", b"}", b"=", b",", b" ", b"\n", b"->", b"@", "\u00b2".encode()
]
TOKENS = [b"A!1", b"Camera!open", b"mode=fast!", b"k=", b"=v", b"$s", b"service=S1", b"A1", b"\xff"]
LITERALS = [
    "api:Camera.open@A1",
    "cb:onPause@A1",
    "api:registerService@B1{service=S1}",
    "api:registerService@B1",
    "cb:stop@B1",
    "api:setTimer@C1{timer=T1}",
    "cb:componentWillUnmount@C1",
    "api:Camera!open@A1",
    "not a literal",
]


@st.composite
def _scenario_text(draw) -> str:
    """A scenario script whose steps may carry bad identifiers."""
    components = draw(st.lists(st.sampled_from(["A1", "B1", "A!1"]), min_size=1, unique=True))
    lifecycle = draw(st.sampled_from(["activity", "osgi-bundle", "react-component"]))
    lines = [f"lifecycle {lifecycle}", *(f"component {c}" for c in components)]
    for _ in range(draw(st.integers(0, 6))):
        component = draw(st.sampled_from(components))
        if draw(st.booleans()):
            callback = draw(st.sampled_from(["onCreate", "onPause", "start", "stop"]))
            lines.append(f"lc {component} {callback}")
        else:
            name = draw(st.sampled_from(["Camera.open", "registerService", "Camera!open"]))
            attrs = draw(st.lists(st.sampled_from(["service=S1", "mode=fast!", "k="]), max_size=2))
            lines.append(" ".join(["call", component, name, *attrs]))
    return "\n".join(lines) + "\n"


@st.composite
def _damaged(draw, texts: st.SearchStrategy[str]) -> bytes:
    """A drawn text, truncated, with bytes dropped, foreign bytes put in
    or a space-separated token swapped for a bad identifier."""
    data = draw(texts).encode()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        how = draw(st.sampled_from(["cut", "drop", "insert", "swap"]))
        if how == "cut":
            data = data[:at]
        elif how == "drop":
            data = data[:at] + data[at + 1 :]
        elif how == "insert":
            data = data[:at] + draw(st.sampled_from(DAMAGE)) + data[at:]
        else:
            tokens = data.split(b" ")
            tokens[at % len(tokens)] = draw(st.sampled_from(TOKENS))
            data = b" ".join(tokens)
    return data


@settings(max_examples=100, deadline=None)
@given(
    policy=_damaged(st.sampled_from(POLICY_TEXTS + MONITOR_TEXTS)),
    monitor=_damaged(st.sampled_from(MONITOR_TEXTS)),
    trace=_damaged(st.sampled_from(TRACE_TEXTS)),
    scenario=_damaged(st.sampled_from(SCENARIO_TEXTS) | _scenario_text()),
    literals=st.lists(st.sampled_from(LITERALS), min_size=1, max_size=3),
)
def test_no_subcommand_ends_in_a_traceback(policy, monitor, trace, scenario, literals):
    with tempfile.TemporaryDirectory() as tmp:
        files = {"policy": policy, "monitor": monitor, "trace": trace, "scenario": scenario}
        paths = {}
        for role, data in files.items():
            paths[role] = str(Path(tmp) / role)
            Path(paths[role]).write_bytes(data)
        events = [arg for literal in literals for arg in ("-e", literal)]
        catalog = [arg for name in CATALOG_POLICIES for arg in ("-p", str(CATALOG / name))]
        runs = [
            ["check", paths["policy"], paths["monitor"]],
            ["enforce", "-p", paths["policy"], paths["trace"]],
            ["enforce", *catalog, paths["trace"]],
            ["simulate", paths["scenario"]],
            ["simulate", "-p", paths["policy"], paths["scenario"]],
            ["verify", "-p", paths["policy"], "-m", paths["monitor"], *events, "--max-len", "2"],
        ]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = cli.main(argv)
            assert code in DOCUMENTED_EXITS[argv[0]], argv


def _console_script(tmp_path) -> list[str]:
    """The command that runs the `enforcekit` script from `[project.scripts]`.

    The installed script when one is on PATH; otherwise the launcher that
    installers generate for the declared `module:attr` target.
    """
    installed = shutil.which("enforcekit")
    if installed:
        return [installed]
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["enforcekit"]
    module, attr = target.split(":")
    launcher = tmp_path / "enforcekit"
    launcher.write_text(f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n")
    return [sys.executable, str(launcher)]


def test_console_script_is_installed(tmp_path):
    command = _console_script(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )

    def run(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([*command, *argv], capture_output=True, text=True, env=env)

    result = run("check", CAMERA_POLICY)
    assert result.returncode == 0
    assert f"{CAMERA_POLICY}: 0 errors, 0 warnings" in result.stdout

    # The exit code must come from main's return value, not a default 0.
    result = run("check", str(tmp_path / "missing.policy"))
    assert result.returncode == 2
    assert "error: cannot read" in result.stderr
