"""The process-wide heap policy: freed NumPy temporaries stay in the heap.

On glibc a repeat estimate must reuse the pages its predecessor freed
instead of faulting fresh ones in; everywhere else the policy is a
logged no-op that never raises.
"""

import ctypes
import ctypes.util
import logging
import random
import resource

import pytest

from repro.api import Session
from repro.core.sampling.mtstream import replay_schedule
from repro.heap import retain_freed_heap

#: The stratified schedule of one W = 30 confidence point on the FULL
#: 4-core frame (12 650 rows in 8 strata): ≈ 1 900 fresh page faults
#: per 1 000-draw replay when freed memory goes back to the kernel.
W30_SCHEDULE = [("sample", 316, 2), ("sample", 519, 2), ("sample", 316, 2),
                ("sample", 316, 2), ("sample", 316, 1), ("sample", 316, 1),
                ("sample", 10506, 19), ("sample", 45, 1)]


@pytest.fixture()
def fresh_policy():
    """Each test sees the once-per-process call run again, and leaves
    the next caller a fresh call too."""
    retain_freed_heap.cache_clear()
    yield
    retain_freed_heap.cache_clear()


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def test_a_repeat_replay_takes_almost_no_page_faults(tmp_path,
                                                      fresh_policy):
    Session("small", cache_dir=tmp_path, model_store_dir="")
    if not retain_freed_heap():
        pytest.skip("no glibc mallopt: the heap policy is not applied")
    replay_schedule(random.Random(4), W30_SCHEDULE, 1000)
    before = _minor_faults()
    replay_schedule(random.Random(4), W30_SCHEDULE, 1000)
    assert _minor_faults() - before < 200


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
