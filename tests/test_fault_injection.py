"""The deterministic fault-injection registry itself.

The chaos suite (``test_chaos.py``) proves the *system* survives
injected faults; this file pins the registry's own contract — spec
parsing, fuse accounting (in-process and cross-process), and the
behaviour of each fault kind in isolation.
"""

import os
import time

import pytest

from repro.testing import faults

pytestmark = pytest.mark.chaos


# --------------------------------------------------------------------------
# Spec parsing: arming a fault that can never fire is itself a bug.

def test_parse_spec_grammar():
    specs = faults.parse_spec(
        "parallel.task=error:2, cache.read=corrupt ,"
        "parallel.task=hang:1:0.25")
    assert [(s.site, s.kind, s.times, s.param) for s in specs] == [
        ("parallel.task", "error", 2, None),
        ("cache.read", "corrupt", 1, None),
        ("parallel.task", "hang", 1, 0.25),
    ]
    # Two specs at one site keep separate fuse indices.
    assert specs[0].index != specs[2].index


@pytest.mark.parametrize("text,fragment", [
    ("nowhere.special=error", "unknown fault site"),
    ("parallel.task=corrupt", "not supported at site"),
    ("parallel.task=error:0", "times must be >= 1"),
    ("parallel.task", "malformed fault spec"),
], ids=["site", "kind", "times", "grammar"])
def test_parse_spec_rejects_bad_input(text, fragment):
    with pytest.raises(ValueError) as caught:
        faults.parse_spec(text)
    assert fragment in str(caught.value)


# --------------------------------------------------------------------------
# Eager environment validation: a typo'd spec fails fast at startup
# with the full site/kind menu, instead of arming a fault that
# silently never fires.

def test_validate_environment_accepts_unset_and_valid(monkeypatch):
    monkeypatch.delenv(faults.ENV_SPEC, raising=False)
    assert faults.validate_environment() == []
    monkeypatch.setenv(faults.ENV_SPEC, "serve.request=error:2")
    specs = faults.validate_environment()
    assert [(s.site, s.kind, s.times) for s in specs] \
        == [("serve.request", "error", 2)]


def test_validate_environment_lists_every_site_on_error():
    environ = {faults.ENV_SPEC: "serve.request=bogus:1"}
    with pytest.raises(ValueError) as caught:
        faults.validate_environment(environ)
    message = str(caught.value)
    assert "invalid %s=" % faults.ENV_SPEC in message
    assert "known fault sites:" in message
    for site, kinds in faults.SITES.items():
        assert site in message
        for kind in kinds:
            assert kind in message


def test_known_sites_text_is_one_line_per_site():
    lines = faults.known_sites_text().splitlines()
    assert len(lines) == len(faults.SITES)
    assert any(line.strip().startswith("serve.request:")
               for line in lines)
    assert "  cache.read: corrupt | error" in lines


# --------------------------------------------------------------------------
# Fire accounting.

def test_unarmed_sites_are_free():
    assert os.environ.get(faults.ENV_SPEC) is None
    assert not faults.armed("parallel.task")
    assert faults.fire("parallel.task") is None


def test_in_process_fuses_fire_exactly_times():
    with faults.injected("parallel.task=error:2"):
        assert faults.armed("parallel.task")
        for _ in range(2):
            with pytest.raises(faults.InjectedFault):
                faults.fire("parallel.task")
        # Spent: later invocations pass through.
        assert faults.fire("parallel.task") is None
        assert faults.fire("parallel.task") is None
    assert not faults.armed("parallel.task")


def test_state_dir_fuses_are_shared_globally(tmp_path):
    """With a state directory, *times* bounds fires across any number
    of (re-)armed processes — a resurrected pool does not re-fire."""
    state = str(tmp_path / "state")
    with faults.injected("emulator.run=step-limit:2", state):
        outcomes = [faults.fire("emulator.run") for _ in range(4)]
    assert outcomes == ["step-limit", "step-limit", None, None]
    assert len(os.listdir(state)) == 2
    # Re-arming against the same state directory finds spent fuses.
    with faults.injected("emulator.run=step-limit:2", state):
        assert faults.fire("emulator.run") is None


def test_site_specific_kinds_are_returned_not_enacted():
    with faults.injected("cache.write=torn:1"):
        assert faults.fire("cache.write") == "torn"


def test_crash_outside_a_worker_degrades_to_an_exception():
    assert not faults.in_worker()
    with faults.injected("parallel.task=crash:1"):
        with pytest.raises(faults.InjectedFault) as caught:
            faults.fire("parallel.task")
    assert "refusing to kill" in str(caught.value)


def test_hang_sleeps_param_seconds_then_passes_through():
    with faults.injected("parallel.task=hang:1:0.2"):
        started = time.monotonic()
        assert faults.fire("parallel.task") is None
        assert time.monotonic() - started >= 0.2


def test_injected_restores_the_environment(tmp_path):
    os.environ.pop(faults.ENV_SPEC, None)
    with faults.injected("parallel.task=error:1", str(tmp_path)):
        assert os.environ[faults.ENV_SPEC] == "parallel.task=error:1"
        assert os.environ[faults.ENV_STATE] == str(tmp_path)
    assert faults.ENV_SPEC not in os.environ
    assert faults.ENV_STATE not in os.environ


def test_injected_validates_eagerly():
    with pytest.raises(ValueError):
        faults.injected("bogus.site=error")


def test_corrupt_file_flips_one_byte(tmp_path):
    path = str(tmp_path / "victim")
    with open(path, "wb") as handle:
        handle.write(b"0123456789")
    faults.corrupt_file(path)
    damaged = open(path, "rb").read()
    assert len(damaged) == 10
    assert damaged != b"0123456789"
    assert damaged[5] == ord("5") ^ 0xFF
