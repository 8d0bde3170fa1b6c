"""The persistent content-addressed artifact store.

Layout (ccache-style fan-out to keep directories small)::

    <cache_dir>/<key[:2]>/<key>.<stage>.json

Each file is the canonical JSON of a schema-versioned envelope wrapping
one JSON artifact payload plus an integrity hash; anything that is not
such an envelope for the requested (key, stage), or whose payload does
not hash to its recorded integrity value, is treated as a miss (and
counted), never as an error -- a corrupted cache must degrade to a cold
run, not break the batch.

Stages are free-form strings.  Per job the farm stores one copy of the
answer, ``explanation``, beside its recorded dependency slice
(``readset`` and ``readset-entries``) and, when audited, its ``audit``
verdict.  The engine's intermediate stages are never stored: they live
only inside the answer, so a re-run always starts from scratch.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from collections.abc import Mapping
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .keys import canonical_json

__all__ = [
    "STORE_SCHEMA",
    "QUARANTINE_SCHEMA",
    "ArtifactStore",
    "StoreError",
    "StoredPayload",
]

STORE_SCHEMA = "repro-farm-store/1"
QUARANTINE_SCHEMA = "repro-farm-quarantine/1"

_STAGE_SAFE = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_-")


class StoreError(ValueError):
    """Raised on misuse of the store API (never on bad cache bytes)."""


class StoredPayload(Mapping[str, Any]):
    """A read-only stored payload carried as its canonical JSON text.

    Answers served from (or just written to) the store travel as one
    of these: the text decodes on first access, and pickling carries
    the text alone, so a worker's answer crosses a process boundary as
    one string instead of a graph of dicts -- and a process that only
    forwards the answer (the server) never decodes it.  Compares equal
    to the decoded ``dict`` in both directions.
    """

    __slots__ = ("text", "_decoded")

    def __init__(self, text: str) -> None:
        self.text = text
        self._decoded: Optional[dict] = None

    def _payload(self) -> dict:
        if self._decoded is None:
            self._decoded = json.loads(self.text)
        return self._decoded

    def __getitem__(self, name: str) -> Any:
        return self._payload()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._payload())

    def __len__(self) -> int:
        return len(self._payload())

    def __reduce__(self) -> Tuple[type, Tuple[str]]:
        return (StoredPayload, (self.text,))

    def __repr__(self) -> str:
        return f"StoredPayload({len(self.text)} chars)"


#: The fixed opening of a canonical envelope, up to the integrity hash.
_HEAD = '{"integrity":"'
_DIGEST_CHARS = 64


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _frame(key: str, stage: str, payload_text: str) -> str:
    """``canonical_json(envelope)``, framed around already-canonical
    payload text (sorted keys: integrity, key, payload, schema, stage).
    ``key`` and ``stage`` are validated by :meth:`ArtifactStore.path_for`
    and need no escaping."""
    return (
        f'{_HEAD}{_sha256(payload_text)}","key":"{key}","payload":'
        f'{payload_text},"schema":"{STORE_SCHEMA}","stage":"{stage}"}}'
    )


def _framed_payload(text: str, key: str, stage: str) -> Optional[str]:
    """The payload slice of a canonical envelope for (key, stage), or
    ``None`` unless the frame matches and the slice hashes to the
    recorded integrity value."""
    middle = f'","key":"{key}","payload":'
    tail = f',"schema":"{STORE_SCHEMA}","stage":"{stage}"}}'
    start = len(_HEAD) + _DIGEST_CHARS + len(middle)
    if not (
        text.startswith(_HEAD)
        and text.startswith(middle, len(_HEAD) + _DIGEST_CHARS)
        and text.endswith(tail)
    ):
        return None
    payload = text[start:len(text) - len(tail)]
    integrity = text[len(_HEAD):len(_HEAD) + _DIGEST_CHARS]
    if not payload.startswith("{") or _sha256(payload) != integrity:
        return None
    return payload


class ArtifactStore:
    """On-disk artifact store keyed by (job key, stage).

    All operations are best-effort with respect to the filesystem:
    unreadable or corrupt entries read as misses, and writes are atomic
    (temp file + ``os.replace``) so concurrent workers sharing one
    cache directory can never observe a half-written artifact.

    One instance may be shared by many threads of a long-running
    process (the serving layer hands one store to every request): the
    mutable bits -- the stats counters and the quarantine-ledger
    read-modify-write -- are guarded by an instance lock, and reads
    never hold it (concurrent readers only ever see a complete old or
    complete new artifact, courtesy of ``os.replace``).  The ledger
    lock is per-process only; concurrent *processes* appending to one
    ledger can at worst drop each other's newest entry, never corrupt
    it.
    """

    def __init__(self, cache_dir: str, hot_artifacts: int = 0) -> None:
        self.cache_dir = cache_dir
        #: ``hit.<stage>`` / ``miss.<stage>`` / ``store.<stage>`` /
        #: ``corrupt.<stage>`` counters for the batch report.
        self.stats: Dict[str, int] = {}
        #: Capacity of the in-memory hot-artifact cache (0 disables).
        #: Long-lived handles (a fleet worker's resident store) keep
        #: the canonical JSON of the most recently touched payloads so
        #: repeat loads skip the filesystem entirely.  Hits are counted
        #: exactly like disk hits, and each load hands out the same
        #: text (or a fresh dict decoded from it), so callers (and
        #: batch report documents) cannot tell the difference.  A
        #: payload replaced on disk by *another* process keeps serving
        #: the remembered copy until evicted --
        #: acceptable because artifacts are content-addressed by job
        #: key and deterministic.
        self.hot_artifacts = hot_artifacts
        self._hot: "OrderedDict[Tuple[str, str], str]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def _count(self, event: str, stage: str) -> None:
        name = f"{event}.{stage}"
        with self._lock:
            self.stats[name] = self.stats.get(name, 0) + 1

    def _remember(self, key: str, stage: str, text: str) -> None:
        with self._lock:
            self._hot[(key, stage)] = text
            self._hot.move_to_end((key, stage))
            while len(self._hot) > self.hot_artifacts:
                self._hot.popitem(last=False)

    def _recall(self, key: str, stage: str) -> Optional[str]:
        if not self.hot_artifacts:
            return None
        with self._lock:
            text = self._hot.get((key, stage))
            if text is not None:
                self._hot.move_to_end((key, stage))
            return text

    def path_for(self, key: str, stage: str) -> str:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise StoreError(f"malformed job key {key!r}")
        if not stage or any(c not in _STAGE_SAFE for c in stage):
            raise StoreError(f"malformed stage name {stage!r}")
        return os.path.join(self.cache_dir, key[:2], f"{key}.{stage}.json")

    # ------------------------------------------------------------------

    def load_text(self, key: str, stage: str) -> Optional[str]:
        """The canonical JSON text of the stored payload for
        (key, stage), or ``None`` on a miss.

        The file is ``canonical_json(envelope)``, whose sorted keys put
        the payload between a fixed-width head (integrity, key) and a
        fixed tail (schema, stage).  The integrity hash is checked over
        that payload slice as it lies in the file, so a read never
        decodes and re-encodes the payload.  A file that is not exactly
        canonical -- even an indented copy of a valid envelope -- reads
        as corrupt.
        """
        path = self.path_for(key, stage)
        hot = self._recall(key, stage)
        if hot is not None:
            self._count("hit", stage)
            return hot
        try:
            with open(path, "r", encoding="ascii") as handle:
                text = handle.read()
        except (OSError, ValueError):
            if os.path.exists(path):
                self._count("corrupt", stage)
            self._count("miss", stage)
            return None
        payload = _framed_payload(text, key, stage)
        if payload is None:
            self._count("corrupt", stage)
            self._count("miss", stage)
            return None
        self._count("hit", stage)
        if self.hot_artifacts:
            self._remember(key, stage, payload)
        return payload

    def load(self, key: str, stage: str) -> Optional[dict]:
        """The stored payload for (key, stage), or ``None`` on a miss."""
        text = self.load_text(key, stage)
        return None if text is None else json.loads(text)

    def _write_atomic(self, path: str, text: str) -> bool:
        """Write ``text`` to ``path`` atomically (temp + ``os.replace``).

        Returns whether the write landed; a read-only or full cache
        degrades to "no cache" and never leaves a half-written file
        visible under ``path``.
        """
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                try:
                    handle = os.fdopen(fd, "w", encoding="ascii")
                except BaseException:
                    # fdopen failing would otherwise leak the raw fd: a
                    # long-running server bleeding one descriptor per
                    # failed write eventually hits EMFILE.
                    os.close(fd)
                    raise
                with handle:
                    handle.write(text)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    def save(self, key: str, stage: str, payload: dict) -> str:
        """Atomically persist ``payload`` under (key, stage).

        Returns the payload's canonical JSON text (whether or not the
        write landed), so callers can hand the answer on as a
        :class:`StoredPayload` without encoding it again.
        """
        if not isinstance(payload, dict):
            raise StoreError(
                f"artifact payloads must be dicts, got {type(payload).__name__}"
            )
        path = self.path_for(key, stage)
        text = canonical_json(payload)
        if self._write_atomic(path, _frame(key, stage, text)):
            self._count("store", stage)
            if self.hot_artifacts:
                self._remember(key, stage, text)
        return text

    # -- quarantine ledger ---------------------------------------------

    @property
    def quarantine_path(self) -> str:
        return os.path.join(self.cache_dir, "quarantine.json")

    def quarantine_entries(self) -> List[dict]:
        """The quarantine ledger's entries (empty on absence/corruption).

        Like artifact reads, a corrupt ledger degrades to "no ledger"
        rather than failing a batch whose answers are otherwise fine.
        """
        try:
            with open(self.quarantine_path, "r", encoding="ascii") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return []
        if (
            not isinstance(document, dict)
            or document.get("schema") != QUARANTINE_SCHEMA
            or not isinstance(document.get("entries"), list)
        ):
            return []
        return [e for e in document["entries"] if isinstance(e, dict)]

    def quarantine_add(self, entry: dict) -> None:
        """Append one quarantined-job record to the ledger, atomically.

        The read-modify-write runs under the instance lock, so every
        supervisor thread of one process (the serving layer runs many
        batches over one store) appends without losing entries;
        concurrent *processes* over one cache can at worst drop each
        other's newest entry, never corrupt the ledger.
        """
        with self._lock:
            entries = self.quarantine_entries()
            entries.append(entry)
            document = {"schema": QUARANTINE_SCHEMA, "entries": entries}
            landed = self._write_atomic(
                self.quarantine_path, canonical_json(document)
            )
        if landed:
            self._count("quarantine", "ledger")

