"""On-disk table of verified degree-2 bound certificates.

The file is a JSON array of entry dicts, of which `FBoundEntry.from_dict`
reads `e`, `r`, `bound`, `certificate`, `nvars`, `field` and `timestamp`;
`exact` is written for readers of the file and derived again on loading.
Loading re-verifies every certificate, all of a file ranked in one batch,
and drops with a warning, in file order, each entry that is malformed or
fails.  Storing merges new entries in, keeping the smallest bound per
(socle degree, codimension) pair and preferring the incumbent on ties, and
writes atomically under an exclusive lock on a sidecar `.lock` file.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import tempfile

from .errors import CorruptCacheError
from .search import FBoundEntry

log = logging.getLogger(__name__)


def load_table(path: str) -> list[FBoundEntry]:
    """Load and re-verify all entries; a missing or empty file is an empty
    table, a structurally broken one raises CorruptCacheError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        return []
    if not text.strip():
        return []
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptCacheError(f"cache file {path} is not valid JSON: {exc}")
    if not isinstance(data, list):
        raise CorruptCacheError(f"cache file {path} must hold a JSON array")
    parsed = []
    for item in data:
        try:
            parsed.append(FBoundEntry.from_dict(item))
        except (KeyError, TypeError, ValueError) as exc:
            parsed.append(exc)
    h2s = iter(FBoundEntry.certificate_h2s(
        en for en in parsed if isinstance(en, FBoundEntry)
    ))
    entries = []
    for pos, entry in enumerate(parsed):
        if not isinstance(entry, FBoundEntry):
            log.warning("dropping malformed cache entry %d in %s: %s", pos, path, entry)
            continue
        if not entry.verify(next(h2s)):
            log.warning(
                "dropping cache entry %d in %s: certificate for e=%d r=%d "
                "failed re-verification",
                pos, path, entry.e, entry.r,
            )
            continue
        entries.append(entry)
    return entries


def merge_store(path: str, entries) -> list[FBoundEntry]:
    """Merge `entries` into the table at `path` and write it back
    atomically.  Per (e, r) the smallest bound wins; on a tie the entry
    already in the file is kept.  Returns the merged table.

    The whole load-merge-write holds an exclusive flock on the sidecar file
    `path + ".lock"`, so a concurrent writer's entries are never lost."""
    with open(path + ".lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        table = {(en.e, en.r): en for en in load_table(path)}
        for en in entries:
            key = (en.e, en.r)
            old = table.get(key)
            if old is None or en.bound < old.bound:
                table[key] = en
        merged = [table[key] for key in sorted(table)]
        payload = json.dumps([en.to_dict() for en in merged], indent=2)
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    return merged
