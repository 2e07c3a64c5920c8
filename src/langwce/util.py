"""Shared plumbing: error types, config field checks, seed derivation, the file rule and the key rule.

The file rule, kept only by ``read_file`` and ``write_file``, which open every file the package reads
or writes: text is UTF-8 whatever the locale, and a file that cannot be opened or decoded raises ``DataFormatError``.

The key rule, checked only by ``require_keys``: a JSON object read from disk
holds exactly the keys its writer writes. Each reader names its file.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from pathlib import Path
from typing import Collection


class UsageError(Exception):
    """Bad command-line usage or invalid flag combination (exit code 1)."""


class DataFormatError(Exception):
    """Malformed or unreadable input data: a WAV file, manifest, checkpoint, evaluation CSV or corpus.json (exit code 2)."""


class DivergenceError(Exception):
    """Training diverged (exit code 3).

    ``model.train_step`` raises it at step t, before touching the model, when
    any of these holds:

    1. a loss is non-finite: the batch's unweighted mean utterance loss, or
       the language-weighted batch loss;
    2. the batch's unweighted mean utterance loss exceeds the explosion bound
       ``K * ln(len(SYMBOLS))``, with K = ``model.LOSS_EXPLOSION_FACTOR`` = 100
       (about 208 at 8 symbols; ln(len(SYMBOLS)) is the loss of a uniform guess).
       The bound reads unweighted losses, so a large language weight alone
       cannot trip it;
    3. the SGD update would leave a non-finite parameter.

    The message names the step, the criterion, and the offending value with
    its bound.
    """


def read_file(path: str | Path, what: str, text: bool = True) -> str | bytes:
    """``path``'s UTF-8 text, line ends as stored, or its bytes if not ``text``; else ``DataFormatError("<path>: cannot read <what>: …")``."""
    try:
        with open(path, "rb") as f:
            data = f.read()
        return data.decode("utf-8") if text else data
    except (OSError, UnicodeDecodeError) as e:
        raise DataFormatError(f"{path}: cannot read {what}: {e}") from e


def write_file(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` to ``path``, text as UTF-8 with its line ends as given, creating the parent directory."""
    data = data.encode("utf-8") if isinstance(data, str) else data
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
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
    """Raise ``ValueError`` naming ``what`` unless ``obj`` is a dict holding exactly ``keys``, which must be distinct."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is {json_type(obj)}, not an object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"{what}: missing keys {missing}")
    if len(obj) != len(keys):
        raise ValueError(f"{what}: unknown keys {sorted(obj.keys() - set(keys))}")


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
