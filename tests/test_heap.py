"""The process-wide heap policy: freed NumPy temporaries stay in the heap.

On glibc a repeat estimate must reuse the pages its predecessor freed
instead of faulting fresh ones in; everywhere else the policy is a
logged no-op that never raises.
"""

import ctypes
import ctypes.util
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.heap import retain_freed_heap

#: The largest NumPy temporary a warm FULL 4-core estimate frees at the
#: scale's default 10 000 draws over W = 10, 30 and 100: the confidence
#: stage's gathered d(w), 10 000 x 140 float64 (10.7 MiB).  Three of
#: that size are live together at the gather (the drawn rows, their
#: concatenation and the gathered values), the estimate's ≈ 32 MiB
#: traced peak.
LARGEST_TEMPORARY = (10_000, 140)

#: Run in a fresh interpreter: glibc's dynamic thresholds adapt to what
#: a process freed before, so only a fresh process shows the policy's
#: effect on one repeated peak.  Exit status 3: the policy was not
#: applied.
REPEATED_PEAK = f"""
import resource, sys
import numpy as np
from repro.api import Session
from repro.heap import retain_freed_heap

Session("small", cache_dir=sys.argv[1], model_store_dir="")
if not retain_freed_heap():
    sys.exit(3)

def peak():
    blocks = [np.ones({LARGEST_TEMPORARY}) for _ in range(3)]
    return sum(float(block[0, 0]) for block in blocks)

peak()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
peak()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.fixture()
def fresh_policy():
    """Each test sees the once-per-process call run again, and leaves
    the next caller a fresh call too."""
    retain_freed_heap.cache_clear()
    yield
    retain_freed_heap.cache_clear()


def test_a_repeat_replay_takes_almost_no_page_faults(tmp_path):
    """A repeat of an estimate's peak reuses the pages the first freed
    (without the policy glibc trims them: 800-1 500 faults on a 2-CPU
    Linux host)."""
    source = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", REPEATED_PEAK,
                          str(tmp_path)], env=env, capture_output=True,
                         text=True, timeout=120)
    if run.returncode == 3:
        pytest.skip("no glibc mallopt: the heap policy is not applied")
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 200


def _one_debug_line(caplog) -> None:
    records = [r for r in caplog.records if r.name == "repro.heap"]
    assert len(records) == 1
    assert records[0].levelno == logging.DEBUG


def test_without_a_c_library_the_policy_is_a_logged_no_op(
        monkeypatch, caplog, fresh_policy):
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
    with caplog.at_level(logging.DEBUG, logger="repro.heap"):
        assert retain_freed_heap() is False
    _one_debug_line(caplog)


def test_without_mallopt_the_policy_is_a_logged_no_op(
        monkeypatch, caplog, fresh_policy):
    class NoMallopt:
        def __init__(self, name):
            pass

    monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
    with caplog.at_level(logging.DEBUG, logger="repro.heap"):
        assert retain_freed_heap() is False
    _one_debug_line(caplog)


def test_a_refused_threshold_is_reported(monkeypatch, caplog,
                                         fresh_policy):
    calls = []

    def refusing(param, value):
        calls.append((param, value))
        return 0

    class Refusing:
        def __init__(self, name):
            self.mallopt = refusing

    monkeypatch.setattr(ctypes, "CDLL", Refusing)
    with caplog.at_level(logging.DEBUG, logger="repro.heap"):
        assert retain_freed_heap() is False
    assert calls == [(-3, 32 << 20)]
    _one_debug_line(caplog)


def test_the_policy_runs_once_per_process(monkeypatch, fresh_policy):
    calls = []

    def accepting(param, value):
        calls.append((param, value))
        return 1

    class Accepting:
        def __init__(self, name):
            self.mallopt = accepting

    monkeypatch.setattr(ctypes, "CDLL", Accepting)
    assert retain_freed_heap() is True
    assert retain_freed_heap() is True
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
