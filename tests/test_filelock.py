"""Writer mutual exclusion: :class:`repro.ioutil.FileLock` + the store.

Atomic replaces keep *readers* safe; these tests pin the writer half:
processes that read-modify-write a shared file under the lock must
never lose an update, and the model store's writes must serialise
under its per-store lock.
"""

import json
import pickle
from multiprocessing import get_context
from pathlib import Path

import pytest

from repro.ioutil import FileLock, atomic_write_text
from repro.sim.modelstore import ModelStore

_PROCESSES = 4
_INCREMENTS = 25

#: The fields of the one-key records these tests store.
IPC = {"ipc": (float,)}


def _locked_increments(root: str, count: int) -> None:
    lock = FileLock(Path(root) / ".write.lock")
    target = Path(root) / "counter.json"
    for _ in range(count):
        with lock:
            value = (json.loads(target.read_text())["value"]
                     if target.exists() else 0)
            atomic_write_text(target, json.dumps({"value": value + 1}))


def test_filelock_serialises_read_modify_write(tmp_path):
    """No lost updates across processes: the multiwriter regression.

    Each worker's read-modify-write is non-atomic as a whole (read,
    increment, replace); without mutual exclusion concurrent workers
    would interleave and overwrite each other's increments.  Under the
    lock the final count is exact.
    """
    context = get_context()
    workers = [context.Process(target=_locked_increments,
                               args=(str(tmp_path), _INCREMENTS))
               for _ in range(_PROCESSES)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
        assert worker.exitcode == 0
    payload = json.loads((tmp_path / "counter.json").read_text())
    assert payload["value"] == _PROCESSES * _INCREMENTS


def test_filelock_is_reentrant_and_tracks_depth(tmp_path):
    lock = FileLock(tmp_path / "x.lock")
    assert not lock.held
    with lock:
        assert lock.held
        with lock:                       # nested acquire must not block
            assert lock.held
        assert lock.held
    assert not lock.held
    with pytest.raises(RuntimeError):
        lock.release()


def test_modelstore_writes_under_its_writer_lock(tmp_path):
    store = ModelStore(tmp_path / "models")
    assert store.writer_lock() is store.writer_lock()
    store.save_record("calib", "gcc-LRU", "0" * 16, {"ipc": 1.0})
    assert store.load_record("calib", "gcc-LRU", "0" * 16, IPC) == \
        {"ipc": 1.0}
    assert (tmp_path / "models" / ".write.lock").exists()
    # A caller-held lock spans the whole read-modify-write; internal
    # saves re-enter it rather than deadlocking.
    with store.writer_lock():
        if store.load_record("calib", "gcc-DIP", "1" * 16, IPC) is None:
            store.save_record("calib", "gcc-DIP", "1" * 16, {"ipc": 0.5})
    assert store.load_record("calib", "gcc-DIP", "1" * 16, IPC) == \
        {"ipc": 0.5}


def test_modelstore_pickles_without_its_lock_handle(tmp_path):
    store = ModelStore(tmp_path / "models")
    with store.writer_lock():            # open handle must not travel
        clone = pickle.loads(pickle.dumps(store))
    assert clone.root == store.root
    assert not clone.writer_lock().held
    clone.save_record("calib", "mcf-LRU", "2" * 16, {"ipc": 0.5})
    assert store.load_record("calib", "mcf-LRU", "2" * 16, IPC) == \
        {"ipc": 0.5}
