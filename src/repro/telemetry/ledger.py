"""Persistent, append-only run ledger: every run leaves a record.

The paper's claims are comparative -- fine-grained vs. all-or-nothing
sprinting, CDOR vs. baseline mesh -- so results are only useful when
there is something to compare them *against*.  The ledger gives every
sweep / evaluation / benchmark run a durable, content-addressed record:
one JSON line per run under ``.repro/ledger/runs.jsonl`` carrying the
spec cache keys, the backend, the git revision, a configuration
fingerprint, wall/CPU time, per-point headline results (average latency,
throughput, ...) and the merged :class:`~repro.telemetry.MetricsRegistry`
snapshot.  :mod:`repro.telemetry.compare` diffs two such records;
``repro regress`` gates CI on the diff.

Durability model
----------------

Records are appended with :func:`repro.util.durable.append_text`, a
single ``write(2)`` on an ``O_APPEND`` file descriptor, so concurrent
writers (parallel benchmark sessions, two ``SweepRunner`` processes
sharing a ledger directory) interleave whole lines, never bytes: the
ledger stays valid JSONL without locking.  :meth:`Ledger.query` reads
only newline-terminated lines and skips unparsable ones, so a reader
racing a writer mid-append sees every committed record and ignores the
torn tail.

Recording is best-effort and *never* fails the run it observes: any
``OSError`` (read-only filesystem, quota, ...) is swallowed and the run
simply goes unrecorded.  Set ``REPRO_LEDGER=0`` to disable recording
entirely, ``REPRO_LEDGER_DIR`` to relocate the ledger directory.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.util.durable import append_text, read_lines

LEDGER_ENV = "REPRO_LEDGER"
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"
DEFAULT_LEDGER_DIR = os.path.join(".repro", "ledger")
_LEDGER_FILENAME = "runs.jsonl"


@functools.lru_cache(maxsize=8)
def git_revision(start: str = ".") -> str | None:
    """The current commit hash, read straight from ``.git`` (no subprocess).

    Walks up from ``start`` to the nearest ``.git/HEAD``; resolves a
    symbolic ref through loose refs and ``packed-refs``.  Returns ``None``
    outside a git checkout -- ledger records are still written, just
    without provenance.
    """
    try:
        root = Path(start).resolve()
    except OSError:
        return None
    for candidate in (root, *root.parents):
        git_dir = candidate / ".git"
        head = git_dir / "HEAD"
        try:
            text = head.read_text(encoding="utf-8").strip()
        except OSError:
            continue
        if not text.startswith("ref:"):
            return text or None
        ref = text.split(None, 1)[1].strip()
        try:
            return (git_dir / ref).read_text(encoding="utf-8").strip() or None
        except OSError:
            pass
        try:
            for line in (git_dir / "packed-refs").read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + ref):
                    return line.split(" ", 1)[0]
        except OSError:
            pass
        return None
    return None


def result_headline(result) -> dict[str, float]:
    """The per-point headline metrics a :class:`SimulationResult` contributes.

    Every value is a plain float so records survive a JSON round trip
    bit-for-bit; the metric names are the vocabulary
    :mod:`repro.telemetry.compare` applies its direction-aware policies to.
    """
    return {
        "avg_latency": float(result.avg_latency),
        "p95_latency": float(result.p95_latency),
        "throughput": float(result.accepted_flits_per_cycle),
        "packets_measured": float(result.packets_measured),
        "saturated": float(bool(result.saturated)),
    }


@dataclass(frozen=True)
class RunRecord:
    """One immutable ledger entry describing a completed run.

    ``points`` maps each spec cache key to that point's headline metrics
    (see :func:`result_headline`); ``headline`` carries run-level
    aggregates.  ``run_id`` is a content hash over the whole record body
    (timestamp included), so two byte-identical re-runs still get
    distinct, individually addressable ids.
    """

    run_id: str
    ts: float
    kind: str  # "sweep" | "evaluate" | "benchmark" | ad-hoc
    label: str | None = None
    backend: str | None = None
    git_rev: str | None = None
    fingerprint: str | None = None
    spec_keys: tuple[str, ...] = ()
    wall_s: float = 0.0
    cpu_s: float = 0.0
    points: dict = field(default_factory=dict)
    headline: dict = field(default_factory=dict)
    metrics: dict | None = None

    def to_json(self) -> dict:
        payload = {
            "run_id": self.run_id,
            "ts": self.ts,
            "kind": self.kind,
            "label": self.label,
            "backend": self.backend,
            "git_rev": self.git_rev,
            "fingerprint": self.fingerprint,
            "spec_keys": list(self.spec_keys),
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "points": self.points,
            "headline": self.headline,
            "metrics": self.metrics,
        }
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "RunRecord":
        return cls(
            run_id=str(payload["run_id"]),
            ts=float(payload["ts"]),
            kind=str(payload["kind"]),
            label=payload.get("label"),
            backend=payload.get("backend"),
            git_rev=payload.get("git_rev"),
            fingerprint=payload.get("fingerprint"),
            spec_keys=tuple(payload.get("spec_keys") or ()),
            wall_s=float(payload.get("wall_s") or 0.0),
            cpu_s=float(payload.get("cpu_s") or 0.0),
            points=dict(payload.get("points") or {}),
            headline=dict(payload.get("headline") or {}),
            metrics=payload.get("metrics"),
        )


class Ledger:
    """Append-only run history under one directory (default ``.repro/ledger``).

    >>> ledger = Ledger()
    >>> rec = ledger.record("sweep", spec_keys=keys, points=points, wall_s=dt)
    >>> base = ledger.baseline("nightly")          # newest record labelled so
    >>> last = ledger.latest(kind="sweep")
    """

    def __init__(self, directory: str | Path | None = None,
                 enabled: bool | None = None):
        if enabled is None:
            flag = os.environ.get(LEDGER_ENV, "1").strip().lower()
            enabled = flag not in ("0", "false", "no", "off")
        if directory is None:
            directory = os.environ.get(LEDGER_DIR_ENV) or DEFAULT_LEDGER_DIR
        self.directory = Path(directory)
        self.enabled = enabled

    @classmethod
    def disabled(cls) -> "Ledger":
        """A ledger that records nothing (for nested/internal runners)."""
        return cls(enabled=False)

    @property
    def path(self) -> Path:
        return self.directory / _LEDGER_FILENAME

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def record(self, kind: str, *, label: str | None = None,
               backend: str | None = None, spec_keys=(),
               wall_s: float = 0.0, cpu_s: float = 0.0,
               points: dict | None = None, headline: dict | None = None,
               metrics: dict | None = None, fingerprint: str | None = None,
               git_rev: str | None = None,
               ts: float | None = None) -> RunRecord | None:
        """Append one run record; returns it, or ``None`` when disabled.

        Best-effort: an unwritable ledger directory silently drops the
        record rather than failing the run being observed.
        """
        if not self.enabled:
            return None
        if ts is None:
            ts = time.time()
        if git_rev is None:
            git_rev = git_revision()
        body = {
            "ts": ts,
            "kind": kind,
            "label": label,
            "backend": backend,
            "git_rev": git_rev,
            "fingerprint": fingerprint,
            "spec_keys": list(spec_keys),
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "points": points or {},
            "headline": headline or {},
            "metrics": metrics,
        }
        blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
        run_id = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
        record = RunRecord.from_json(dict(body, run_id=run_id))
        # the line is the body with "run_id" in its sorted place, just
        # before the top-level "spec_keys": the last such key in the blob,
        # since only the key strings, ts and wall_s follow it
        at = blob.rindex(',"spec_keys":')
        line = f'{blob[:at]},"run_id":"{run_id}"{blob[at:]}\n'
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            append_text(self.path, line)
        except OSError:
            return None
        return record

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def query(self, kind: str | None = None, label: str | None = None,
              backend: str | None = None,
              limit: int | None = None) -> list[RunRecord]:
        """Records in append order, oldest first, optionally filtered.

        Unparsable lines (a torn tail from a writer caught mid-append) are
        skipped, not raised.
        """
        records: list[RunRecord] = []
        for payload in read_lines(self.path)[0]:
            try:
                record = RunRecord.from_json(payload)
            except (ValueError, KeyError, TypeError):
                continue  # foreign line: tolerate, don't fail
            if kind is not None and record.kind != kind:
                continue
            if label is not None and record.label != label:
                continue
            if backend is not None and record.backend != backend:
                continue
            records.append(record)
        if limit is not None:
            records = records[-limit:]
        return records

    def latest(self, kind: str | None = None, label: str | None = None,
               backend: str | None = None) -> RunRecord | None:
        """The newest matching record, or ``None``."""
        records = self.query(kind=kind, label=label, backend=backend)
        return records[-1] if records else None

    def get(self, ref: str) -> RunRecord | None:
        """The record whose ``run_id`` matches ``ref`` exactly or uniquely
        by prefix (newest wins on an ambiguous prefix)."""
        if not ref:
            return None
        match = None
        for record in self.query():
            if record.run_id == ref:
                return record
            if record.run_id.startswith(ref):
                match = record  # keep scanning: newest prefix match wins
        return match

    def latest_with_point(self, key: str,
                          kind: str | None = None) -> RunRecord | None:
        """The newest record whose ``points`` payload contains ``key``.

        The service front door uses this as the durable fallback for
        ``GET /v1/results/{cache_key}``: even after the result cache is
        wiped (or the server restarts memory-only), the per-point
        headline metrics recorded at run time remain retrievable.
        """
        for record in reversed(self.query(kind=kind)):
            if key in record.points:
                return record
        return None

    def baseline(self, ref: str | None = None,
                 kind: str | None = None) -> RunRecord | None:
        """Resolve a baseline reference to a record.

        ``ref`` may be ``None`` / ``"latest"`` (the newest record), a run
        id or unique id prefix, or a label (the newest record carrying
        it).  Returns ``None`` when nothing matches.
        """
        if ref is None or ref == "latest":
            return self.latest(kind=kind)
        record = self.get(ref)
        if record is not None:
            return record
        return self.latest(kind=kind, label=ref)


__all__ = [
    "DEFAULT_LEDGER_DIR",
    "LEDGER_DIR_ENV",
    "LEDGER_ENV",
    "Ledger",
    "RunRecord",
    "git_revision",
    "result_headline",
]
