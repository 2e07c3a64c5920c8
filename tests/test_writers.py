"""Every writer refuses what its reader would refuse, before it creates any file or directory.

``util.write_file``, which every writer calls, makes the parent directory only when it is missing.
"""

import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import TINY
from langwce.manifest import ManifestEntry, write_manifest
from langwce.metrics import write_eval_csv
from langwce.model import ModelConfig, init_model, save_checkpoint
from langwce.synthlang import generate_corpus
from langwce.util import write_file

ENTRY = {"id": "a", "lang": "L0", "text": "AB", "wav": "x/a.wav", "split": "test"}
MODEL = init_model(ModelConfig(context=1, hidden=4, n_langs=3), seed=19)

# case -> (write to the target path, the error, its message with {path} for the target)
# write_wav has no case: a clip read_wav would refuse cannot be built (test_audio.py::TestAudioClip::test_sample_rule)
REFUSALS = {
    "manifest-repeated-id": (
        lambda path: write_manifest(path, [ManifestEntry(**ENTRY)] * 2),
        ValueError,
        "^{path}: id 'a' of entry 1 already belongs to entry 0$",
    ),
    "manifest-mistyped-field": (
        lambda path: write_manifest(path, [ManifestEntry(**{**ENTRY, "id": 3})]),
        ValueError,
        "^field 'id' must be a string, got number$",
    ),
    "manifest-empty": (lambda path: write_manifest(path, []), ValueError, "^{path}: empty manifest$"),
    "eval-bool-count": (
        lambda path: write_eval_csv(path, "WS", "L0", 4, True, 20),
        ValueError,
        "^{path}: total_edits must be an int, got True$",
    ),
    "eval-float-count": (
        lambda path: write_eval_csv(path, "r", "L0", 1.5, 0, 2),
        ValueError,
        "^{path}: n_utts must be an int, got 1.5$",
    ),
    "eval-unencodable-run": (
        lambda path: write_eval_csv(path, "a\ud800", "L0", 1, 0, 2),
        ValueError,
        "^{path}: 'utf-8' codec can't encode character '\\\\ud800'",
    ),
    "checkpoint-list-meta": (
        lambda path: save_checkpoint(MODEL, [1], path),
        ValueError,
        "^{path}: cannot save checkpoint: meta is list, not a dict$",
    ),
    "checkpoint-non-finite-meta": (
        lambda path: save_checkpoint(MODEL, {"loss": float("nan")}, path),
        ValueError,
        "^{path}: cannot save checkpoint: Out of range float values are not JSON compliant",
    ),
    "checkpoint-unencodable-meta": (
        lambda path: save_checkpoint(MODEL, {"langs": {"L0"}}, path),
        ValueError,
        "^{path}: cannot save checkpoint: Object of type set is not JSON serializable$",
    ),
    "checkpoint-int-key-meta": (
        lambda path: save_checkpoint(MODEL, {1: "a"}, path),
        ValueError,
        r"^{path}: cannot save checkpoint: meta \{1: 'a'\} would load as \{'1': 'a'\}$",
    ),
    "checkpoint-tuple-meta": (
        lambda path: save_checkpoint(MODEL, {"k": (1, 2)}, path),
        ValueError,
        r"^{path}: cannot save checkpoint: meta \{'k': \(1, 2\)\} would load as \{'k': \[1, 2\]\}$",
    ),
    "checkpoint-repeated-key-meta": (
        lambda path: save_checkpoint(MODEL, {1: "a", "1": "b"}, path),
        ValueError,
        "^{path}: cannot save checkpoint: repeated key '1'$",
    ),
    "corpus-fraction": (
        lambda path: generate_corpus(replace(TINY, low_fraction=Fraction(1, 10)), path),
        TypeError,
        "^Object of type Fraction is not JSON serializable$",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refused_before_anything_is_written(tmp_path, case):
    write, error, message = REFUSALS[case]
    target = tmp_path / "new" / "target"
    with pytest.raises(error, match=message.replace("{path}", re.escape(str(target)))):
        write(target)
    assert not (tmp_path / "new").exists()


def test_write_file_makes_a_missing_nested_directory(tmp_path):
    target = tmp_path / "a" / "b" / "f.txt"
    write_file(target, "x\r\n")
    assert target.read_bytes() == b"x\r\n"


def test_write_file_into_an_existing_directory_makes_none(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mkdir called for a parent that exists")

    monkeypatch.setattr(Path, "mkdir", refuse)
    write_file(tmp_path / "f.bin", b"\x00\xff")
    assert (tmp_path / "f.bin").read_bytes() == b"\x00\xff"
