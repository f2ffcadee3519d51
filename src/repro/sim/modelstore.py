"""Persistent store for trained models and calibration anchors.

Training a BADCO node model costs two detailed runs per benchmark, an
interval profile one; standalone anchors add up to one run per
(benchmark, policy) -- the dominant start-up cost of every campaign now
that panel evaluation is a handful of NumPy calls.  All of those
artefacts are deterministic functions of their configuration, so this
module makes them durable: a :class:`ModelStore` is a directory of
content-addressed files, and builders consult it before training.

Two kinds of file live here:

- ``.npz`` artefacts: BADCO node models and interval profiles;
- small JSON *records* (:meth:`ModelStore.save_record`): the ``calib``
  anchors both backends read and the analytic ``vector`` records --
  each benchmark's node model flattened to the five scalars the
  closure reads, keyed by the node model's own signature, so a warm
  analytic campaign never deserialises a model.

Keys are explicit: every artefact file name carries the benchmark (or
policy) it belongs to, a short configuration *signature* -- a SHA-256
digest over everything the artefact depends on (trace length, seed,
the full core / uncore configuration reprs, warmup fraction) -- and the
store format version.  Like the campaign cache key's results version,
bumping :data:`MODELSTORE_VERSION` orphans every stale file at once;
stale or corrupt entries are never served, they are re-derived (a
present file that cannot be used logs one warning naming it).

Stored values round-trip bit-identically: node-model floats travel as
raw float64 npz bytes, record scalars as JSON shortest-repr (which
Python parses back to the identical double).  A campaign against a warm
store therefore produces bit-identical results to the cold run that
filled it -- pinned by ``tests/test_modelstore.py``.

Writes are atomic (temp file + ``os.replace``), so parallel campaigns
sharing one store directory can race without corrupting entries.  On
top of that, every write serialises under an advisory per-store
:class:`~repro.ioutil.FileLock` (``<root>/.write.lock``): atomicity
alone keeps *readers* safe, the lock adds writer mutual exclusion --
the precondition the planned ``repro serve`` daemon's
single-writer/many-reader layout names.  :meth:`ModelStore.writer_lock`
exposes the same lock for callers whose critical section spans a
read-modify-write (e.g. coalescing generation counters).
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import zipfile
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.ioutil import FileLock, atomic_write_bytes
from repro.sim.badco.model import BadcoModel, BadcoNode

#: Store format revision, part of every file name.  Bump whenever the
#: serialised layout *or* the semantics of any trained artefact change
#: (e.g. a node-model builder fix), so stale files are orphaned rather
#: than served.
MODELSTORE_VERSION = 1

#: Signature length (hex chars of the SHA-256 digest).
_SIGNATURE_CHARS = 16

logger = logging.getLogger(__name__)


def config_signature(*parts: object) -> str:
    """A short stable digest over configuration objects.

    Uses ``repr`` of each part -- the configuration dataclasses
    (``CoreConfig``, ``UncoreConfig``, ...) have deterministic,
    field-complete reprs -- so any change to any field changes the
    signature.
    """
    payload = "\x1f".join(repr(part) for part in parts)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return digest[:_SIGNATURE_CHARS]


def _unusable(path: Path, reason: str) -> None:
    """Log why a present entry is not served; returns a loader's miss."""
    logger.warning("model store entry %s is unusable (%s); re-deriving it",
                   path, reason)


def _read_columns(path: Path, benchmark: str,
                  names: Tuple[str, ...]) -> Optional[list]:
    """One npz entry's members as Python values, or None when it is
    missing or unusable (then logged)."""
    try:
        with np.load(path, allow_pickle=False) as data:
            stored = str(data["benchmark"])
            columns = [data[name].tolist() for name in names]
    except FileNotFoundError:
        return None
    except (OSError, KeyError, ValueError, EOFError,
            zipfile.BadZipFile) as error:
        return _unusable(path, f"{type(error).__name__}: {error}")
    if stored != benchmark:
        return _unusable(path, f"it holds {stored}")
    return columns


def _split(flat: tuple, offsets: List[int], rows: int) -> Optional[list]:
    """``flat`` cut into ``rows`` slices at an offset table, or None
    unless the table has ``rows + 1`` entries and ends at ``flat``'s end."""
    if len(offsets) != rows + 1 or offsets[-1] != len(flat):
        return None
    return [flat[start:stop] for start, stop in zip(offsets, offsets[1:])]


def attach_store(builder: object,
                 directory: Optional[Union[str, Path]]) -> None:
    """Attach a store to a builder that supports one and has none.

    The single attach policy shared by :class:`repro.api.engine.
    Campaign` and :class:`repro.api.session.Session`: a ``None``
    directory and builders without ``use_store`` are no-ops, and an
    explicitly-set store is never overridden.
    """
    if directory is None or not hasattr(builder, "use_store"):
        return
    if getattr(builder, "store", None) is None:
        builder.use_store(ModelStore(directory))


class ModelStore:
    """A directory of trained-model artefacts, keyed by signature.

    Args:
        root: the store directory (created on first write).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._lock: Optional[FileLock] = None

    # ------------------------------------------------------------------
    # Low-level plumbing

    def writer_lock(self) -> FileLock:
        """The store's advisory writer lock (created lazily).

        Every internal write acquires it, so two processes saving into
        one store directory serialise their writes.  Callers with a
        larger critical section (check for an entry, train, save) can
        hold the same lock around the whole read-modify-write::

            with store.writer_lock():
                if store.load_record(...) is None:
                    store.save_record(...)

        The lock is re-entrant per :class:`~repro.ioutil.FileLock`
        instance, so saves inside such a block do not deadlock.
        """
        if self._lock is None:
            self._lock = FileLock(self.root / ".write.lock")
        return self._lock

    def __getstate__(self):
        # Stores travel to pool workers inside pickled builders; the
        # lock's open file description must not (each process opens
        # its own).
        state = dict(self.__dict__)
        state["_lock"] = None
        return state

    def _path(self, stem: str, suffix: str) -> Path:
        return self.root / f"{stem}-v{MODELSTORE_VERSION}{suffix}"

    def _write_atomic(self, path: Path, data: bytes) -> None:
        with self.writer_lock():
            atomic_write_bytes(path, data)

    # ------------------------------------------------------------------
    # BADCO node models

    def badco_model_path(self, benchmark: str, signature: str) -> Path:
        """Where one benchmark's node model lives."""
        return self._path(f"badco-{benchmark}-{signature}", ".npz")

    def save_badco_model(self, model: BadcoModel, signature: str) -> None:
        """Serialise one trained node model (atomic, bit-exact floats)."""
        nodes = model.nodes
        offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
        for i, node in enumerate(nodes):
            offsets[i + 1] = offsets[i] + len(node.extra_requests)
        extra_addresses = np.fromiter(
            (address for node in nodes for address, _ in node.extra_requests),
            dtype=np.int64, count=int(offsets[-1]))
        extra_is_write = np.fromiter(
            (is_write for node in nodes for _, is_write in node.extra_requests),
            dtype=np.bool_, count=int(offsets[-1]))
        arrays = {
            "benchmark": np.array(model.benchmark),
            "trace_length": np.array(model.trace_length, dtype=np.int64),
            "uop_count": np.array([n.uop_count for n in nodes],
                                  dtype=np.int64),
            "intrinsic": np.array([n.intrinsic for n in nodes],
                                  dtype=np.float64),
            "sensitivity": np.array([n.sensitivity for n in nodes],
                                    dtype=np.float64),
            # -1 marks the request-free tail node (read_address=None).
            "read_address": np.array(
                [-1 if n.read_address is None else n.read_address
                 for n in nodes], dtype=np.int64),
            "read_pc": np.array([n.read_pc for n in nodes], dtype=np.int64),
            "extra_offsets": offsets,
            "extra_addresses": extra_addresses,
            "extra_is_write": extra_is_write,
        }
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        self._write_atomic(self.badco_model_path(model.benchmark, signature),
                           buffer.getvalue())

    def load_badco_model(self, benchmark: str,
                         signature: str) -> Optional[BadcoModel]:
        """Deserialise one node model, or None on miss / corruption."""
        path = self.badco_model_path(benchmark, signature)
        columns = _read_columns(path, benchmark, (
            "trace_length", "uop_count", "intrinsic", "sensitivity",
            "read_address", "read_pc", "extra_offsets", "extra_addresses",
            "extra_is_write"))
        if columns is None:
            return None
        (trace_length, uop_count, intrinsic, sensitivity, read_address,
         read_pc, offsets, addresses, is_write) = columns
        # Ragged columns or flat arrays would be truncated by zip.
        extras = _split(tuple(zip(addresses, is_write)), offsets,
                        len(uop_count))
        if extras is None or len(addresses) != len(is_write) or not (
                len(uop_count) == len(intrinsic) == len(sensitivity)
                == len(read_address) == len(read_pc)):
            return _unusable(path, "ragged columns")
        read_address = [None if address < 0 else address
                        for address in read_address]
        nodes = list(map(BadcoNode._make, zip(
            uop_count, intrinsic, sensitivity, read_address, read_pc,
            extras)))
        return BadcoModel(benchmark, trace_length, nodes)

    # ------------------------------------------------------------------
    # Interval profiles (the one-training-run interval-model artefact)

    def interval_profile_path(self, benchmark: str, signature: str) -> Path:
        """Where one benchmark's interval profile lives."""
        return self._path(f"interval-{benchmark}-{signature}", ".npz")

    def save_interval_profile(self, profile, signature: str) -> None:
        """Serialise one interval profile (atomic, bit-exact floats).

        Ragged per-interval sequences (the overlap group's demand
        reads, the fire-and-forget extras) travel as flat arrays plus
        offset tables, like the BADCO node extras.
        """
        intervals = profile.intervals
        read_offsets = np.zeros(len(intervals) + 1, dtype=np.int64)
        extra_offsets = np.zeros(len(intervals) + 1, dtype=np.int64)
        for i, interval in enumerate(intervals):
            read_offsets[i + 1] = read_offsets[i] + len(interval.reads)
            extra_offsets[i + 1] = extra_offsets[i] + len(interval.extras)
        arrays = {
            "benchmark": np.array(profile.benchmark),
            "trace_length": np.array(profile.trace_length, dtype=np.int64),
            "uop_count": np.array([i.uop_count for i in intervals],
                                  dtype=np.int64),
            "intrinsic": np.array([i.intrinsic for i in intervals],
                                  dtype=np.float64),
            "pc": np.array([i.pc for i in intervals], dtype=np.int64),
            "read_offsets": read_offsets,
            "read_addresses": np.fromiter(
                (address for i in intervals for address in i.reads),
                dtype=np.int64, count=int(read_offsets[-1])),
            "extra_offsets": extra_offsets,
            "extra_addresses": np.fromiter(
                (address for i in intervals
                 for address, _ in i.extras),
                dtype=np.int64, count=int(extra_offsets[-1])),
            "extra_is_write": np.fromiter(
                (is_write for i in intervals
                 for _, is_write in i.extras),
                dtype=np.bool_, count=int(extra_offsets[-1])),
        }
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        self._write_atomic(
            self.interval_profile_path(profile.benchmark, signature),
            buffer.getvalue())

    def load_interval_profile(self, benchmark: str, signature: str):
        """Deserialise one interval profile, or None on miss/corruption."""
        from repro.sim.interval.profile import Interval, IntervalProfile

        path = self.interval_profile_path(benchmark, signature)
        columns = _read_columns(path, benchmark, (
            "trace_length", "uop_count", "intrinsic", "pc", "read_offsets",
            "read_addresses", "extra_offsets", "extra_addresses",
            "extra_is_write"))
        if columns is None:
            return None
        (trace_length, uop_count, intrinsic, pc, read_offsets,
         read_addresses, extra_offsets, extra_addresses,
         extra_is_write) = columns
        rows = len(uop_count)
        reads = _split(tuple(read_addresses), read_offsets, rows)
        extras = _split(tuple(zip(extra_addresses, extra_is_write)),
                        extra_offsets, rows)
        if reads is None or extras is None \
                or len(extra_addresses) != len(extra_is_write) \
                or not (rows == len(intrinsic) == len(pc)):
            return _unusable(path, "ragged columns")
        intervals = list(map(Interval, uop_count, intrinsic, reads, extras,
                             pc))
        return IntervalProfile(benchmark, trace_length, intervals)

    # ------------------------------------------------------------------
    # Small scalar records (calibrations, vectors)

    def record_path(self, kind: str, name: str, signature: str) -> Path:
        """Where one scalar record lives (``kind``: "calib" or
        "vector")."""
        return self._path(f"{kind}-{name}-{signature}", ".json")

    def save_record(self, kind: str, name: str, signature: str,
                    payload: Dict[str, float]) -> None:
        """Persist one scalar record (atomic; floats via shortest repr)."""
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._write_atomic(self.record_path(kind, name, signature), data)

    def load_record(self, kind: str, name: str, signature: str,
                    fields: Mapping[str, Tuple[type, ...]]
                    ) -> Optional[Dict[str, float]]:
        """Load one scalar record, or None on a miss or an unusable file.

        ``fields`` maps every key the record must hold, and no other, to
        the types its value may have, exactly (``type(v) in allowed``,
        so ``True`` is no ``int``).  A missing file is a silent miss; a
        present one that does not parse or validate logs one warning
        naming it.
        """
        path = self.record_path(kind, name, signature)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            return _unusable(path, f"{type(error).__name__}: {error}")
        if not isinstance(payload, dict) or set(payload) != set(fields) \
                or any(type(payload[key]) not in allowed
                       for key, allowed in fields.items()):
            return _unusable(path, f"not a record of {sorted(fields)}")
        return payload

    def __repr__(self) -> str:
        return f"ModelStore({str(self.root)!r})"
