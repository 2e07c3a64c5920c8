"""Shared plumbing: error types, config field checks, seed derivation, the file rule and the key rule.

The file rule: only ``read_file`` and ``write_file`` open a file or make a directory. Text is UTF-8
whatever the locale, and a file that cannot be opened or decoded raises ``DataFormatError``.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from pathlib import Path
from typing import Collection


class UsageError(Exception):
    """Bad command-line usage or invalid flag combination (exit code 1)."""


class DataFormatError(Exception):
    """Malformed or unreadable input data: a WAV file, manifest, checkpoint, evaluation CSV or corpus.json (exit code 2)."""


class DivergenceError(Exception):
    """Training diverged (exit code 3); ``model.train_step`` states when."""


def read_file(path: str | Path, what: str, text: bool = True) -> str | bytes:
    """``path``'s text, line ends as stored, or its bytes if not ``text``; else ``DataFormatError("<path>: cannot read <what>: …")``."""
    try:
        with open(path, "rb") as f:
            data = f.read()
        return data.decode("utf-8") if text else data
    except (OSError, UnicodeDecodeError) as e:
        raise DataFormatError(f"{path}: cannot read {what}: {e}") from e


def write_file(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` to ``path``, text with its line ends as given, making the parent directory if it is missing."""
    data = data.encode("utf-8") if isinstance(data, str) else data
    try:
        f = open(path, "wb")
    except FileNotFoundError:  # the directory is made only when missing: most writes land in one that exists
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        f = open(path, "wb")
    with f:
        f.write(data)


def is_int(value) -> bool:
    """Whether ``value`` is an ``int``; a bool is not, nor is a numpy integer."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_ints(obj, *names: str) -> None:
    """Raise ``ValueError`` naming the first of ``obj``'s fields ``names`` that fails ``is_int``."""
    for name in names:
        value = getattr(obj, name)
        if not is_int(value):
            raise ValueError(f"{name} must be an int, got {value!r}")


def require_finite_reals(obj, *names: str) -> None:
    """Raise ``ValueError`` naming the first of ``obj``'s fields ``names`` that is not a finite real.

    A bool is not a real here, and an int too large for a float is not finite.
    """
    for name in names:
        value = getattr(obj, name)
        try:
            finite = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
        except OverflowError:  # math.isfinite found no float for an int this large
            finite = False
        if not finite:
            raise ValueError(f"{name} must be a finite real number, got {value!r}")


JSON_TYPE_NAMES = {str: "string", bool: "boolean", int: "number", float: "number", list: "array", dict: "object"}


def json_type(value) -> str:
    """The JSON name of ``value``'s type, or its Python name for a type JSON lacks (a ``Path``, say)."""
    return "null" if value is None else JSON_TYPE_NAMES.get(type(value), type(value).__name__)


def require_keys(what: str, obj, keys: Collection[str]) -> None:
    """Raise ``ValueError`` naming ``what`` unless ``obj`` is a dict holding exactly ``keys``, which must be distinct.

    This is the key rule: a JSON object read from disk holds exactly the keys
    its writer writes, so a missing key is refused, not read as its default.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is {json_type(obj)}, not an object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"{what}: missing keys {missing}")
    if len(obj) != len(keys):
        raise ValueError(f"{what}: unknown keys {sorted(obj.keys() - set(keys))}")


def _object_without_repeats(pairs: list[tuple[str, object]]) -> dict:
    """The JSON object of ``pairs``; ``ValueError`` for a key that repeats an earlier one, which a dict would keep the last of."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


# one decoder for every call: json.loads with a hook builds a new one each time, which doubled a manifest line's parse time
_DECODER = json.JSONDecoder(object_pairs_hook=_object_without_repeats)


def parse_json(text: str):
    """``json.loads`` of ``text``, but an object that repeats a key raises ``ValueError`` naming the key.

    Every JSON read from disk goes through here, so no reader keeps the last
    of two values for one key unseen.
    """
    return _DECODER.decode(text)


def derive_seed(base: int, *tokens) -> int:
    """Stable 63-bit seed derived from a base seed and string/int tokens.

    Hash-based so per-item seeds are independent of processing order.
    """
    h = hashlib.sha256()
    h.update(str(int(base)).encode())
    for tok in tokens:
        h.update(b"\x1f")
        h.update(str(tok).encode())
    return int.from_bytes(h.digest()[:8], "little") >> 1
