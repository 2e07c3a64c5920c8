"""JSONL corpus manifests.

One record per line, its keys in sorted order: {"id", "lang", "text", "wav", "split", "augmented"},
all strings except the boolean "augmented". A line ends at \\n, \\r or \\r\\n, where ``readlines`` splits
(``str.splitlines`` would also split a record's text at U+2028). A manifest holds at least one record,
and no two records share an id. WAV paths are stored relative to the manifest file's directory.

Each rule lives in one place: the field types in ``ManifestEntry``, the id
rule in ``repeated_id`` and the key rule (a record holds exactly ``FIELDS``)
in ``util.require_keys``. ``write_manifest`` refuses what ``read_manifest``
would refuse, and then writes nothing.
"""

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
    """Every record of a manifest; ``DataFormatError`` naming the file (and line) if any is bad or it cannot be read.

    A record is bad when it is not an object holding exactly ``FIELDS``, has a
    field ``ManifestEntry`` refuses, or repeats an id.
    """
    path = Path(path)
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
    """Write ``entries`` one record per line, in order.

    Raises ``ValueError``, and writes nothing, when ``entries`` is empty or two
    entries share an id; ``ManifestEntry`` has already refused a mistyped field.
    """
    path = Path(path)
    if not entries:
        raise ValueError(f"{path}: empty manifest")
    repeat = repeated_id(e.id for e in entries)
    if repeat:
        entry_id, first, again = repeat
        raise ValueError(f"{path}: id {entry_id!r} of entry {again} already belongs to entry {first}")
    write_file(path, "".join(json.dumps({k: getattr(e, k) for k in sorted(FIELDS)}) + "\n" for e in entries))
    return path
