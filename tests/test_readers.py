"""Every reader refuses a file it cannot open or decode as ``DataFormatError`` naming it.

No reader or writer opens a file in the locale's encoding, and no module but ``util`` opens a file or makes a directory.
"""

import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import langwce
from conftest import TINY
from langwce.audio import read_wav
from langwce.manifest import read_manifest
from langwce.metrics import read_eval_csv
from langwce.model import ModelConfig, init_model, load_checkpoint, save_checkpoint
from langwce.synthlang import load_corpus_meta
from langwce.util import DataFormatError

# reader -> (the file's name, what the error calls it, read the file at a path); load_corpus_meta takes its directory
READERS = {
    "wav": ("a.wav", "WAV file", read_wav),
    "manifest": ("manifest.jsonl", "manifest", read_manifest),
    "corpus-meta": ("corpus.json", "corpus metadata", lambda path: load_corpus_meta(path.parent)),
    "checkpoint": ("ckpt.json", "checkpoint", load_checkpoint),
    "eval-csv": ("L0.csv", "evaluation CSV", read_eval_csv),
}
# case -> put it at the path: nothing, a directory, or bytes that are not UTF-8 (offered to the text readers only)
UNREADABLE = {
    "missing": lambda path: None,
    "directory": Path.mkdir,
    "undecodable": lambda path: path.write_bytes(b"\xff\xfe{"),
    "undecodable-after-a-line": lambda path: path.write_bytes(b"run,language\n\xff\xfe\n"),
}
CASES = [(reader, case) for reader in READERS for case in UNREADABLE if reader != "wav" or case in ("missing", "directory")]


@pytest.mark.parametrize("reader, case", CASES)
def test_unreadable_file_refused(tmp_path, reader, case):
    name, what, read = READERS[reader]
    path = tmp_path / name
    UNREADABLE[case](path)
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: cannot read {what}: "):
        read(path)


def test_manifest_of_blank_lines_refused(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n \n\r\n")
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: empty manifest$"):
        read_manifest(path)


def _repeat_in_last_object(text, key, value):
    """``text``, a JSON object whose last value is an object, with ``"key": value`` added to that inner object."""
    assert text.endswith("}}")
    return f"{text[:-2]}, {json.dumps(key)}: {json.dumps(value)}}}}}"


# reader -> (write a file there in which one object repeats a key, the error's text after the file's name);
# json.loads alone keeps the last value of a repeated key
REPEATED_KEYS = {
    "manifest": (
        lambda path: path.write_text(
            '{"id": "a", "lang": "L0", "text": "AB", "wav": "x.wav", "split": "test", "augmented": false, "id": "b"}\n'
        ),
        ":1: invalid JSON: repeated key 'id'",
    ),
    "corpus-meta": (
        lambda path: path.write_text(_repeat_in_last_object(json.dumps({"config": asdict(TINY)}), "seed", TINY.seed + 1)),
        ": repeated key 'seed'",
    ),
    "checkpoint": (
        lambda path: path.write_text(
            _repeat_in_last_object(
                save_checkpoint(init_model(ModelConfig(n_langs=3), seed=1), {"step": 1}, path).read_text(), "step", 2
            )
        ),
        ": malformed checkpoint: repeated key 'step'",
    ),
}


@pytest.mark.parametrize("reader", sorted(REPEATED_KEYS))
def test_repeated_key_refused(tmp_path, reader):
    name, _, read = READERS[reader]
    write, message = REPEATED_KEYS[reader]
    path = tmp_path / name
    write(path)
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path) + message)}$"):
        read(path)


# generate a corpus, read it, augment it, round-trip a checkpoint and render a report
GUARDED_RUN = """
import sys, json
from pathlib import Path
from langwce import audio, metrics, model, synthlang

root = Path(sys.argv[1])
synthlang.generate_corpus(synthlang.CorpusConfig(**json.loads(sys.argv[2])), root / "corpus")
_, languages = synthlang.load_corpus_meta(root / "corpus")
synthlang.load_examples(root / "corpus", "finetune", languages)
audio.augment_dataset(root / "corpus" / "manifest.jsonl", root / "aug", audio.AugmentSpec(seed=1), splits={"finetune"})
net = model.init_model(model.ModelConfig(n_langs=len(languages)), seed=1)
model.load_checkpoint(model.save_checkpoint(net, {"run": "WS"}, root / "WS.json"))
for run, edits in (("WS", 2), ("FT", 1)):
    for lang in languages:
        metrics.write_eval_csv(root / "runs" / run / "eval" / f"{lang.name}.csv", run, lang.name, 1, edits, 4)
metrics.report(root / "runs", root / "out", low_lang=languages[-1].name, baseline="FT", run_order=["WS", "FT"], pretrain_run="WS")
"""


def test_no_file_opened_in_the_locale_encoding(tmp_path):
    # every open that would pick the locale's encoding warns, and the warning is an error
    src = Path(langwce.__file__).parents[1]
    command = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", GUARDED_RUN]
    done = subprocess.run(
        [*command, str(tmp_path), json.dumps(asdict(TINY))],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "report.md").is_file()


# a call that opens a file or makes a directory; listing one (glob, iterdir) is allowed
FILE_CALL = re.compile(r"\bopen\(|\.mkdir\(|\bos\.makedirs\(|\.(read|write)_(text|bytes)\(")


def test_only_util_opens_files_and_makes_directories():
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(Path(langwce.__file__).parent.glob("*.py"))
        if path.name != "util.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if FILE_CALL.search(line)
    ]
    assert not found, found
