"""JSONL corpus manifests: one ``ManifestEntry`` per line, its WAV path relative to the manifest file's directory."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .util import JSON_TYPE_NAMES, DataFormatError, json_type, read_file, require_keys, write_file

FIELDS = {"id": str, "lang": str, "text": str, "wav": str, "split": str, "augmented": bool}


@dataclass(frozen=True)
class ManifestEntry:
    """One manifest record; ``ValueError`` naming the first field whose value has the wrong type."""

    id: str
    lang: str
    text: str
    wav: str
    split: str
    augmented: bool = False

    def __post_init__(self):
        for k, kind in FIELDS.items():
            value = getattr(self, k)
            if not isinstance(value, kind):
                raise ValueError(f"field {k!r} must be a {JSON_TYPE_NAMES[kind]}, got {json_type(value)}")


def repeated_id(ids: Iterable[str]) -> tuple[str, int, int] | None:
    """The first id that repeats an earlier one, with the positions of both (from 0); None when the ids all differ."""
    first = {}
    for i, entry_id in enumerate(ids):
        j = first.setdefault(entry_id, i)
        if j != i:
            return entry_id, j, i
    return None


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Every record of a manifest; ``DataFormatError`` naming the file (and line) if any is bad."""
    path = Path(path)
    # lines end at \n, \r or \r\n, where readlines splits; str.splitlines would also split a text at U+2028
    lines = io.StringIO(read_file(path, "manifest"), newline="").readlines()
    entries = []
    linenos = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataFormatError(f"{path}:{lineno}: invalid JSON: {e}") from e
        try:
            require_keys("record", rec, FIELDS)
            entries.append(ManifestEntry(**rec))
        except ValueError as e:
            raise DataFormatError(f"{path}:{lineno}: {e}") from e
        linenos.append(lineno)
    if not entries:
        raise DataFormatError(f"{path}: empty manifest")
    repeat = repeated_id(e.id for e in entries)
    if repeat:
        entry_id, first, again = repeat
        raise DataFormatError(f"{path}:{linenos[again]}: id {entry_id!r} already on line {linenos[first]}")
    return entries


def write_manifest(path: str | Path, entries: list[ManifestEntry]) -> Path:
    """Write ``entries`` one record per line, in order; ``ValueError``, with nothing written, for what ``read_manifest`` would refuse."""
    path = Path(path)
    if not entries:
        raise ValueError(f"{path}: empty manifest")
    repeat = repeated_id(e.id for e in entries)
    if repeat:
        entry_id, first, again = repeat
        raise ValueError(f"{path}: id {entry_id!r} of entry {again} already belongs to entry {first}")
    write_file(path, "".join(json.dumps({k: getattr(e, k) for k in sorted(FIELDS)}) + "\n" for e in entries))
    return path
