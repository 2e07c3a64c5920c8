"""Tests for JSONL manifests: the record and id rules, which the writer and the reader share, and the round trip."""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langwce.manifest import ManifestEntry, read_manifest, write_manifest
from langwce.util import DataFormatError

# any code point, lone surrogates included: the writer escapes every non-ASCII one
ANY_TEXT = st.text(st.characters(blacklist_categories=()), max_size=12)
ENTRIES = st.lists(
    st.builds(
        ManifestEntry,
        id=ANY_TEXT,
        lang=ANY_TEXT,
        text=ANY_TEXT,
        wav=ANY_TEXT,
        split=ANY_TEXT,
        augmented=st.booleans(),
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda e: e.id,
)


class TestManifestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(entries=ENTRIES)
    def test_reader_returns_what_writer_accepted(self, entries):
        with tempfile.TemporaryDirectory() as tmp:
            assert read_manifest(write_manifest(Path(tmp) / "m.jsonl", entries)) == entries


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [ManifestEntry(id="a", lang="L0", text="AB", wav="x/a.wav", split="test")]
        path = write_manifest(tmp_path / "m.jsonl", entries)
        assert read_manifest(path) == entries

    def test_records_written_as_sorted_key_json(self, tmp_path):
        entries = [
            ManifestEntry(id="test-L0-00001", lang="L0", text="HAB", wav="test/L0/test-L0-00001.wav", split="test"),
            ManifestEntry(id='a"1', lang="L1", text="C", wav="finetune/L1/a\\1.wav", split="finetune", augmented=True),
        ]
        lines = write_manifest(tmp_path / "m.jsonl", entries).read_text().split("\n")
        assert lines == [json.dumps(asdict(e), sort_keys=True) for e in entries] + [""]

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "a", "lang": "L0"}) + "\n")
        with pytest.raises(DataFormatError, match=r"bad\.jsonl:1: record: missing keys \['text', 'wav', 'split', 'augmented'\]$"):
            read_manifest(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(DataFormatError):
            read_manifest(path)

    def test_mistyped_fields_rejected(self, tmp_path):
        good = {"id": "a", "lang": "L0", "text": "AB", "wav": "x/a.wav", "split": "test", "augmented": False}
        bad = {"id": 1, "lang": None, "text": "AB", "wav": 3, "split": "test", "augmented": "no"}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DataFormatError, match=r"bad\.jsonl:2: field 'id' must be a string, got number"):
            read_manifest(path)
        for field, value, got in [("lang", None, "null"), ("wav", 3, "number"), ("augmented", "no", "string")]:
            path.write_text(json.dumps({**good, field: value}) + "\n")
            kind = "boolean" if field == "augmented" else "string"
            with pytest.raises(DataFormatError, match=rf"bad\.jsonl:1: field '{field}' must be a {kind}, got {got}"):
                read_manifest(path)

    def test_duplicate_id_rejected_naming_the_line(self, tmp_path):
        entry = {"id": "a", "lang": "L0", "text": "AB", "wav": "x/a.wav", "split": "test", "augmented": False}
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(json.dumps({**entry, "id": i}) for i in ("a", "b", "a")) + "\n")
        with pytest.raises(DataFormatError, match=r"bad\.jsonl:3: id 'a' already on line 1$"):
            read_manifest(path)

    def test_non_object_record_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(DataFormatError, match=r"bad\.jsonl:1: record is array, not an object$"):
            read_manifest(path)

    def test_unknown_field_rejected_naming_the_line(self, tmp_path):
        good = {"id": "a", "lang": "L0", "text": "AB", "wav": "x/a.wav", "split": "test", "augmented": False}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", "speaker": "s1", "gain": 2}) + "\n")
        with pytest.raises(DataFormatError, match=r"bad\.jsonl:2: record: unknown keys \['gain', 'speaker'\]$"):
            read_manifest(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("id", 3, "field 'id' must be a string, got number"),
            ("augmented", "no", "field 'augmented' must be a boolean, got string"),
            ("wav", Path("x/a.wav"), f"field 'wav' must be a string, got {type(Path()).__name__}"),
        ],
    )
    def test_mistyped_entry_refused_naming_the_field(self, field, value, message):
        fields = {"id": "a", "lang": "L0", "text": "AB", "wav": "x/a.wav", "split": "test", field: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            ManifestEntry(**fields)
