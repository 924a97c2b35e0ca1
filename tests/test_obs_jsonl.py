"""The shared JSONL sink behind the ledger, the event bus and the access log."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import access, events, jsonl, ledger
from repro.obs import metrics as obs_metrics

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _sinks_off():
    access.disable_access_log()
    events.disable_events()
    ledger.disable_ledger()
    yield
    access.disable_access_log()
    events.disable_events()
    events.clear_events()
    ledger.disable_ledger()


def _counter(name):
    return obs_metrics.get_registry().snapshot()["counters"].get(name, 0)


def _read_ledger(path):
    return ledger.read_runs(directory=path)


#: family -> (reader, file name of the sink, one well-formed record).
READERS = {
    "access": (access.read_access, access.SINK_FILENAME,
               {"schema": access.ACCESS_SCHEMA, "endpoint": "/solve",
                "status": 200}),
    "events": (events.read_events, events.SINK_FILENAME,
               {"schema": events.EVENT_SCHEMA, "seq": 1, "ts": 0.0,
                "type": "lp.solve", "payload": {}}),
    "ledger": (_read_ledger, "demo.run.jsonl",
               {"schema": ledger.RECORD_SCHEMA, "entry_point": "demo.run",
                "started_at": 1.0}),
}


@pytest.mark.parametrize("family", sorted(READERS))
def test_reader_skips_torn_lines(tmp_path, family):
    """A torn line is skipped and counted under the family's counter; a
    JSON line that is not an object is skipped without counting."""
    reader, filename, good = READERS[family]
    (tmp_path / filename).write_text(
        json.dumps(good) + "\n[1, 2]\n{torn-jso", encoding="utf-8")
    counter = f"{family}.read.corrupt_lines.count"
    before = _counter(counter)
    assert reader(tmp_path) == [good]
    assert _counter(counter) == before + 1


@pytest.mark.parametrize("family", sorted(READERS))
def test_reader_accepts_file_or_directory(tmp_path, family):
    reader, filename, good = READERS[family]
    (tmp_path / filename).write_text(json.dumps(good) + "\n",
                                     encoding="utf-8")
    assert reader(tmp_path) == reader(tmp_path / filename) == [good]
    assert reader(tmp_path / "absent") == []


def test_read_events_of_a_sink_directory(tmp_path):
    """Regression: ``read_events(<dir>)`` used to hit IsADirectoryError
    and silently return nothing."""
    events.enable_events(tmp_path)
    events.publish("run.start", entry_point="demo")
    events.disable_events()
    (event,) = events.read_events(tmp_path)
    assert event["payload"] == {"entry_point": "demo"}


@pytest.mark.parametrize("value,on", [
    ("", False), ("0", False), ("false", False), ("no", False),
    ("1", True), ("yes", True), ("true", True),
    # Case and surrounding whitespace are ignored; ``off`` is off.
    ("False", False), ("FALSE", False), ("No", False), ("off", False),
    ("OFF", False), (" 0 ", False), ("\tfalse\n", False), ("  ", False),
    ("True", True), ("YES", True), (" 1 ", True), ("on", True),
])
def test_env_flag(monkeypatch, value, on):
    monkeypatch.setenv("REPRO_TEST_FLAG", value)
    assert jsonl.env_flag("REPRO_TEST_FLAG") is on
    monkeypatch.delenv("REPRO_TEST_FLAG")
    assert jsonl.env_flag("REPRO_TEST_FLAG") is False


def test_access_log_env_with_unusable_directory_is_off(tmp_path):
    """Regression: ``REPRO_ACCESS=1`` with a directory that cannot be
    opened used to report the log on with no file behind it."""
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_ACCESS="1",
               REPRO_ACCESS_DIR=str(blocker / "access"))
    probe = ("from repro.obs import access; "
             "print(access.access_log_enabled(), access.access_log_path())")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "None"]


@pytest.mark.skipif(not Path("/dev/full").exists(),
                    reason="needs /dev/full to force a write error")
def test_access_log_write_error_turns_it_off(tmp_path):
    """Regression: a failed write closed the sink but left the log
    reporting itself on."""
    (tmp_path / access.SINK_FILENAME).symlink_to("/dev/full")
    access.enable_access_log(tmp_path)
    assert access.access_log_enabled()
    before = _counter("access.sink_errors.count")
    assert access.log_request(None, "POST", "/solve", 200, None, 0.0) is None
    assert _counter("access.sink_errors.count") == before + 1
    assert not access.access_log_enabled()
    assert access.access_log_path() is None


def test_events_sink_failure_keeps_the_bus_on(tmp_path):
    """The bus and its file sink are separate switches: without a usable
    directory the bus still buffers events in memory."""
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("", encoding="utf-8")
    events.enable_events(blocker / "events")
    assert events.events_enabled()
    assert events.events_sink_path() is None
    assert events.publish("run.start", entry_point="demo") is not None
