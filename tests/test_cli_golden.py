"""Byte-exact CLI output: exit code, stdout, stderr and written files.

Every case runs ``cli.main`` in process, with the repository root as the
working directory and scratch inputs in a temporary directory whose path
is written ``<tmp>`` in the expected file. To record the current output
as the expectation, run ``PYTHONPATH=src:tests python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from enforcekit import cli

from conftest import ROOT

GOLDEN = Path(__file__).with_name("cli_golden.json")

INPUTS = {
    "zombie.policy": (
        "policy P\nalphabet cb a\ninitial S\n"
        "state S:\n  on cb a -> S emit [$in]\nstate Z:\nend\n"
    ),
    "broken.policy": "policy P\ninitial S\nstate S:\n",
    "fork.policy": (
        "policy P\nalphabet cb a\ninitial S\n"
        "state S:\n  on cb a -> S emit [$in]\n  on cb a -> S emit [$in]\nend\n"
    ),
    "mute.policy": (
        "policy Mute\nalphabet cb onResume\ninitial S\n"
        "state S:\n  on cb onResume -> S emit []\nend\n"
    ),
    "eager.policy": (
        "policy Eager\ninstantiate per-component\nalphabet cb onPause\ninitial S\n"
        "state S:\n  on cb onPause -> S emit [api Camera.release, $in]\nend\n"
    ),
    "link0.policy": (
        "policy L0\nalphabet api p0\ninitial S\n"
        "state S:\n  on api p0 -> S emit [api p1, $in]\nend\n"
    ),
    "link1.policy": (
        "policy L1\nalphabet api p1\ninitial S\n"
        "state S:\n  on api p1 -> S emit [api p2, $in]\nend\n"
    ),
    "leaky.trace": "1 api:Camera.open@A1\n2 cb:onPause@A1\n",
    "mixed.trace": (
        "1 api:Camera.open@A1\n"
        "2 api:registerService@B1 service=S1\n"
        "3 api:registerService@B1 service=S2\n"
        "4 api:setTimer@C1 timer=T1\n"
        "5 cb:onPause@A1\n"
        "6 cb:onResume@A1\n"
        "7 cb:stop@B1\n"
        "8 cb:componentWillUnmount@C1\n"
    ),
    "chain.trace": "1 api:p0@C1\n",
    "empty.trace": "# nothing happens\n",
    "bad.trace": "1 wibble\n",
    "stuck.scn": "lifecycle activity\ncomponent A1\nlc A1 onResume\n",
    "warp.scn": "lifecycle activity\nwarp A1\n",
}

CATALOG_FILES = [
    "catalog/camera_release.policy",
    "catalog/osgi_unregister.policy",
    "catalog/react_cleanup.policy",
    "catalog/camera.monitor",
    "catalog/osgi.monitor",
    "catalog/react.monitor",
]
CATALOG_POLICY_FLAGS = [
    "-p", "catalog/camera_release.policy",
    "-p", "catalog/osgi_unregister.policy",
    "-p", "catalog/react_cleanup.policy",
]
SCENARIOS = sorted(p.name for p in (ROOT / "scenarios").glob("*.scn"))
CAMERA_UNIVERSE = [
    "-e", "api:Camera.open@A1",
    "-e", "api:Camera.release@A1",
    "-e", "cb:onPause@A1",
    "-e", "cb:onResume@A1",
    "--max-len", "3",
]


def _cases() -> dict[str, tuple[list[str], list[str]]]:
    """Case id -> (argv, files the run writes); ``<tmp>/`` marks scratch paths."""
    base: dict[str, tuple[list[str], list[str]]] = {
        "check-catalog": (["check", *CATALOG_FILES], []),
        "check-findings": (
            ["check", "<tmp>/zombie.policy", "<tmp>/broken.policy", "<tmp>/fork.policy"],
            [],
        ),
        "check-missing": (["check", "<tmp>/missing.policy"], []),
        "check-then-missing": (
            ["check", "catalog/camera_release.policy", "<tmp>/missing.policy"], []
        ),
        "enforce-stdout": (
            ["enforce", "-p", "catalog/camera_release.policy", "<tmp>/leaky.trace"], []
        ),
        "enforce-out": (
            ["enforce", "-p", "catalog/camera_release.policy", "<tmp>/leaky.trace",
             "-o", "<tmp>/fixed.trace"],
            ["fixed.trace"],
        ),
        "enforce-stack": (
            ["enforce", *CATALOG_POLICY_FLAGS, "-p", "<tmp>/mute.policy",
             "<tmp>/mixed.trace"],
            [],
        ),
        "enforce-empty": (
            ["enforce", "-p", "catalog/camera_release.policy", "<tmp>/empty.trace",
             "-o", "<tmp>/empty.out"],
            ["empty.out"],
        ),
        "enforce-depth": (
            ["enforce", "-p", "<tmp>/link0.policy", "-p", "<tmp>/link1.policy",
             "--depth", "1", "<tmp>/chain.trace"],
            [],
        ),
        "enforce-bad-trace": (
            ["enforce", "-p", "catalog/camera_release.policy", "<tmp>/bad.trace"], []
        ),
        "simulate-out": (
            ["simulate", "-p", "catalog/camera_release.policy",
             "scenarios/plumeria-leak.scn", "-o", "<tmp>/plumeria.trace"],
            ["plumeria.trace", "plumeria.trace.unenforced"],
        ),
        "simulate-error": (["simulate", "<tmp>/stuck.scn"], []),
        "simulate-unparseable": (["simulate", "<tmp>/warp.scn"], []),
        "verify-sound": (
            ["verify", "-p", "catalog/camera_release.policy",
             "-m", "catalog/camera.monitor", *CAMERA_UNIVERSE],
            [],
        ),
        "verify-unsound": (
            ["verify", "-p", "benchmarks/identity.policy",
             "-m", "catalog/camera.monitor", *CAMERA_UNIVERSE],
            [],
        ),
        "verify-opaque": (
            ["verify", "-p", "<tmp>/eager.policy",
             "-m", "catalog/camera.monitor", *CAMERA_UNIVERSE],
            [],
        ),
        "verify-unroutable": (
            ["verify", "-p", "catalog/osgi_unregister.policy", "-m", "catalog/osgi.monitor",
             "-e", "api:registerService@B1", "-e", "cb:stop@B1"],
            [],
        ),
    }
    for name in SCENARIOS:
        stem = name.removesuffix(".scn")
        base[f"simulate-{stem}"] = (["simulate", f"scenarios/{name}"], [])
        base[f"simulate-{stem}-enforced"] = (
            ["simulate", *CATALOG_POLICY_FLAGS, f"scenarios/{name}"], []
        )
    cases = {}
    for case_id, (argv, written) in base.items():
        for fmt in ("text", "structured"):
            cases[f"{case_id}-{fmt}"] = ([*argv, "--format", fmt], written)
    return cases


CASES = _cases()


def _run_case(argv: list[str], written: list[str], tmp: Path) -> dict:
    """Run one case from the repository root; return its normalized outcome."""
    for name, text in INPUTS.items():
        (tmp / name).write_text(text)
    for name in written:
        (tmp / name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([arg.replace("<tmp>", str(tmp)) for arg in argv])

    def norm(text: str) -> str:
        return text.replace(str(tmp), "<tmp>")

    return {
        "code": code,
        "stdout": norm(out.getvalue()),
        "stderr": norm(err.getvalue()),
        "files": {name: (tmp / name).read_text() for name in written},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_cli_output_is_unchanged(case_id, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv, written = CASES[case_id]
    assert _run_case(argv, written, tmp_path) == golden[case_id]


def _record() -> None:
    os.chdir(ROOT)
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case_id, (argv, written) in sorted(CASES.items()):
            results[case_id] = _run_case(argv, written, Path(tmp))
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(results)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
