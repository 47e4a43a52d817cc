"""Crash-safe file primitives: each durability decision is made here once.

The result cache, the sweep fabric's queue directory, the run ledger and
the live dashboard persist state that other processes read while it is
being written, and that must survive a writer SIGKILLed at any instant:
whole-file publishes (:func:`write_atomic`), JSONL logs
(:func:`append_line` / :func:`append_text` / :func:`read_lines`), claim files
(:func:`create_exclusive`) and tolerant JSON reads (:func:`read_json`).
"""

from __future__ import annotations

import json
import os
import tempfile


def write_atomic(path, data: bytes, fsync: bool) -> None:
    """Publish ``data`` at ``path``: a crash leaves the old or new file.

    The bytes go to a temp file in the target directory (``fsync``'d
    when asked), which ``os.replace`` then renames over ``path``.  The
    temp file is removed on any failure, and the failure propagates.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def append_line(path, record: dict) -> None:
    """Append ``record`` as one compact, key-sorted JSON line (see
    :func:`append_text`)."""
    append_text(
        path, json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    )


def append_text(path, line: str) -> None:
    """Append ``line``, an already encoded newline-terminated record.

    One ``write(2)`` on an ``O_APPEND`` descriptor: POSIX appends the
    whole line atomically, so concurrent writers interleave whole lines,
    never bytes, without locking.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


def read_lines(path, offset: int = 0) -> tuple[list, int]:
    """The JSON records after byte ``offset``, plus the new offset.

    Only newline-terminated lines are parsed and the offset never passes
    an incomplete one, so a reader racing a writer mid-append re-reads
    the line whole next time.  Damaged lines are skipped; a missing file
    reads as empty.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            blob = handle.read()
    except OSError:
        return [], offset
    end = blob.rfind(b"\n")
    if end < 0:
        return [], offset
    records = []
    for line in blob[:end + 1].splitlines():
        if not line.strip():
            continue
        try:
            records.append(json.loads(line.decode("utf-8")))
        except ValueError:  # UnicodeDecodeError included
            continue
    return records, offset + end + 1


def create_exclusive(path, data: bytes) -> bool:
    """Create ``path`` holding ``data``; ``False`` if it already exists.

    ``O_CREAT | O_EXCL`` makes the create atomic: of any number of racing
    creators, threads or processes, exactly one wins.  Any other
    ``OSError`` (an unwritable directory) propagates.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except FileExistsError:
        return False
    try:
        os.write(fd, data)
    finally:
        os.close(fd)
    return True


def read_json(path):
    """Parse a JSON file; ``None`` when it is missing or torn."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None
