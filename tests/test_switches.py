"""The switch table (repro.switches): one parser, one resolve, one forced().

Every row of :data:`repro.switches.SWITCHES` goes through the same
tests: environment parsing, the import-time failure on a bad value,
explicit-beats-process resolution, and :meth:`Switch.forced` restoring
the process value. The layer suites check how each layer consumes its
row (config fields, fingerprints); the worker count's precedence and
clamp are pinned in ``test_campaign_core.py``.
"""

import os
import subprocess
import sys

import pytest

from repro import switches
from repro.__main__ import main
from repro.switches import SWITCHES, WORKERS_ENV, Switch

ROWS = pytest.mark.parametrize("switch", SWITCHES, ids=lambda s: s.name)


def _other(switch: Switch) -> str:
    """An allowed value that differs from the switch's default."""
    return next(value for value in switch.values if value != switch.default)


def test_table_rows():
    assert [s.env for s in SWITCHES] == ["REPRO_KERNELS", "REPRO_PERF", "REPRO_FAULTSIM"]
    assert [s.default for s in SWITCHES] == ["fast", "reference", "reference"]
    assert [row["env"] for row in switches.table()] == [
        "REPRO_KERNELS", "REPRO_PERF", "REPRO_FAULTSIM", WORKERS_ENV,
    ]


@ROWS
def test_env_parse_ignores_case_and_whitespace(switch):
    other = _other(switch)
    assert switch.parse(f"  {other.upper()}\n") == other
    assert switch.parse(other.capitalize()) == other
    for blank in ("", "   "):
        assert switch.parse(blank) == switch.default


@ROWS
def test_env_parse_rejects_unknown_values(switch):
    with pytest.raises(ValueError, match=switch.env) as error:
        switch.parse("turbo")
    assert str(switch.values) in str(error.value)


@ROWS
def test_invalid_env_fails_at_import(switch):
    env = {**os.environ, switch.env: "warp", "PYTHONPATH": "src"}
    out = subprocess.run(
        [sys.executable, "-c", "import repro.switches"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode != 0
    assert f"{switch.env}='warp'" in out.stderr


@ROWS
def test_env_sets_process_value(switch):
    other = _other(switch)
    env = {**os.environ, switch.env: f" {other.upper()} ", "PYTHONPATH": "src"}
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            f"from repro import switches; print(switches.{switch.name.upper()}.value)",
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == other


@ROWS
def test_resolve_explicit_beats_process_value(switch):
    for process in switch.values:
        with switch.forced(process):
            assert switch.resolve(None) == process
            for explicit in switch.values:
                assert switch.resolve(explicit) == explicit


@ROWS
def test_resolve_rejects_unknown_names(switch):
    for bad in ("turbo", "FAST", ""):
        with pytest.raises(ValueError, match=switch.env):
            switch.resolve(bad)


@ROWS
def test_forced_restores_on_exit_and_error(switch):
    before = switch.value
    other = _other(switch)
    with switch.forced(other):
        assert switch.value == other
    assert switch.value == before
    with pytest.raises(RuntimeError):
        with switch.forced(other):
            raise RuntimeError("boom")
    assert switch.value == before
    with pytest.raises(ValueError, match=switch.env):
        with switch.forced("turbo"):
            pass  # pragma: no cover - forced() rejects before entering
    assert switch.value == before


def test_cli_prints_every_row(monkeypatch, capsys):
    monkeypatch.setenv(WORKERS_ENV, "3")
    with switches.PERF.forced("fast"):
        assert main(["switches"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["name", "env", "values", "default", "resolved"]
    rows = {line.split()[0]: line.split() for line in lines[1:]}
    assert set(rows) == {"kernels", "perf", "faultsim", "workers"}
    assert rows["perf"] == ["perf", "REPRO_PERF", "fast|reference", "reference", "fast"]
    assert rows["workers"][-1] == "3"


def test_cli_rejects_malformed_workers(monkeypatch, capsys):
    monkeypatch.setenv(WORKERS_ENV, "abc")
    assert main(["switches"]) == 2
    assert WORKERS_ENV in capsys.readouterr().err
