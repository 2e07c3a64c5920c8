"""JSONL corpus manifests.

One record per line: {"id", "lang", "text", "wav", "split", "augmented"}, all
strings except the boolean "augmented". No two records share an id.
WAV paths are stored relative to the manifest file's directory.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .util import DataFormatError

FIELDS = {"id": str, "lang": str, "text": str, "wav": str, "split": str, "augmented": bool}
_JSON_TYPE_NAMES = {str: "string", bool: "boolean", int: "number", float: "number", list: "array", dict: "object"}


def _json_type(value) -> str:
    return "null" if value is None else _JSON_TYPE_NAMES[type(value)]


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    lang: str
    text: str
    wav: str
    split: str
    augmented: bool = False


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Every record of a manifest; ``DataFormatError`` naming the file (and line) if any is bad or it cannot be read."""
    path = Path(path)
    try:
        with open(path) as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise DataFormatError(f"{path}: cannot read manifest: {e}") from e
    entries = []
    first_line = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataFormatError(f"{path}:{lineno}: invalid JSON: {e}") from e
        if not isinstance(rec, dict):
            raise DataFormatError(f"{path}:{lineno}: record must be an object, got {_json_type(rec)}")
        missing = [k for k in FIELDS if k not in rec]
        if missing:
            raise DataFormatError(f"{path}:{lineno}: missing fields {missing}")
        for k, kind in FIELDS.items():
            if not isinstance(rec[k], kind):
                raise DataFormatError(
                    f"{path}:{lineno}: field {k!r} must be a {_JSON_TYPE_NAMES[kind]}, got {_json_type(rec[k])}"
                )
        if rec["id"] in first_line:
            raise DataFormatError(f"{path}:{lineno}: id {rec['id']!r} already on line {first_line[rec['id']]}")
        first_line[rec["id"]] = lineno
        entries.append(ManifestEntry(**{k: rec[k] for k in FIELDS}))
    if not entries:
        raise DataFormatError(f"{path}: empty manifest")
    return entries


def write_manifest(path: str | Path, entries: list[ManifestEntry]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for e in entries:
            f.write(json.dumps(asdict(e), sort_keys=True) + "\n")
    return path


def resolve_wav(manifest_path: str | Path, entry: ManifestEntry) -> Path:
    return (Path(manifest_path).parent / entry.wav).resolve()
