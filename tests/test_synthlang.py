"""Tests for the tone-language corpus generator and Goertzel featurization."""

import hashlib
import json
import re
import tempfile
from collections import Counter
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dominant_frequency, goertzel_power, oracle_featurize, oracle_synthesize, same_bits, write_wav_at_rate

from conftest import TINY
from langwce.audio import AudioClip, write_wav
from langwce.manifest import ManifestEntry, read_manifest, write_manifest
from langwce.synthlang import (
    _BASIS,
    _TONES,
    FRAME_SAMPLES,
    FRAMES_PER_SYMBOL,
    FREQ_GRID,
    SAMPLE_RATE,
    SYMBOL_SAMPLES,
    SYMBOLS,
    CorpusConfig,
    LanguageSpec,
    featurize,
    frame_labels,
    generate_corpus,
    load_corpus_meta,
    load_examples,
    make_languages,
    symbol_ids,
    synthesize_utterance,
)
from langwce.util import DataFormatError

TINY_LANGS = make_languages(TINY.n_langs, TINY.seed)


class TestMakeLanguages:
    def test_language_zero_is_identity(self):
        specs = make_languages(2, seed=0)
        assert specs[0].freq_map == FREQ_GRID
        assert specs[0].freq_map[SYMBOLS.index("A")] == 500.0
        assert specs[0].freq_map != specs[1].freq_map

    def test_deterministic_in_seed(self):
        assert make_languages(6, seed=3) == make_languages(6, seed=3)
        assert make_languages(6, seed=3) != make_languages(6, seed=4)

    def test_six_pairwise_distinct_permutations(self):
        specs = make_languages(6, seed=0)
        maps = [s.freq_map for s in specs]
        assert len(set(maps)) == 6
        for s in specs:
            assert sorted(s.freq_map) == sorted(FREQ_GRID)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_languages(1, seed=0)
        with pytest.raises(ValueError):
            make_languages(9, seed=0)


class TestLanguageSpec:
    # case -> freq_map; synthesis finds each symbol's tone by its frequency's grid index
    BAD_MAPS = {
        "repeated": (500.0, 500.0, *FREQ_GRID[2:]),
        "off_grid": (*FREQ_GRID[:-1], 2100.0),
        "short": FREQ_GRID[:7],
    }

    @pytest.mark.parametrize("case", sorted(BAD_MAPS))
    def test_non_permutation_rejected(self, case):
        with pytest.raises(ValueError, match=r"^freq_map must hold each FREQ_GRID frequency exactly once, got \("):
            LanguageSpec(id=0, freq_map=self.BAD_MAPS[case])


class TestSymbolIds:
    LANG0 = make_languages(2, seed=0)[0]

    def test_indices_in_alphabet(self):
        ids = symbol_ids("HAB" + SYMBOLS)
        assert ids.dtype == np.int64
        assert ids.tolist() == [7, 0, 1, *range(len(SYMBOLS))]

    # case -> (text, what the error says); both callers raise it before any other check
    BAD_TEXTS = {
        "empty": ("", "^text must be non-empty$"),
        "unknown": ("AZBa", r"^unknown symbols \['Z', 'a'\] in text; alphabet is ABCDEFGH$"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_TEXTS))
    def test_bad_text_rejected_alike_by_both_callers(self, case):
        text, message = self.BAD_TEXTS[case]
        for call in (lambda: symbol_ids(text), lambda: synthesize_utterance(self.LANG0, text), lambda: frame_labels(text, 1)):
            with pytest.raises(ValueError, match=message):
                call()


class TestSynthesizeUtterance:
    LANG0 = make_languages(2, seed=0)[0]

    def test_two_symbols_are_3200_samples(self):
        clip = synthesize_utterance(self.LANG0, "AB")
        assert len(clip) == 3200

    def test_symbol_a_is_500_hz_under_identity_language(self):
        clip = synthesize_utterance(self.LANG0, "AAAA")
        assert dominant_frequency(clip) == pytest.approx(500, rel=0.02)

    def test_amplitude_bound(self):
        clip = synthesize_utterance(self.LANG0, "ABCDEFGH")
        assert np.abs(clip.samples).max() <= 0.3 + 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_per_symbol_oracle(self, seed):
        rng = np.random.default_rng(seed)
        texts = [SYMBOLS] + ["".join(rng.choice(list(SYMBOLS), size=n)) for n in range(1, 13) for _ in range(3)]
        for lang in make_languages(8, seed):
            for text in texts:
                assert same_bits(synthesize_utterance(lang, text).samples, oracle_synthesize(lang, text)), (lang, text)

    def test_each_symbol_featurizes_to_frames_per_symbol(self, tiny_corpus):
        _, languages = load_corpus_meta(tiny_corpus)
        for lang in languages:
            for n in (1, 2, 7, 12):
                clip = synthesize_utterance(lang, (SYMBOLS * 2)[:n])
                assert clip.sample_rate == SAMPLE_RATE
                assert featurize(clip).n_frames == n * FRAMES_PER_SYMBOL


class TestGoertzel:
    def test_projection_matches_recurrence(self):
        rng = np.random.default_rng(2)
        frame = rng.uniform(-0.5, 0.5, FRAME_SAMPLES)
        values = oracle_featurize(AudioClip(frame), normalize=False)
        for k, freq in enumerate(FREQ_GRID):
            recurrence = goertzel_power(frame, freq, 16000)
            assert np.expm1(values[0, k]) == pytest.approx(recurrence, rel=1e-9, abs=1e-9)

    def test_pure_tone_concentrates_in_its_bin(self):
        lang0 = make_languages(2, seed=0)[0]
        clip = synthesize_utterance(lang0, "A" * 10)  # 1 s of 500 Hz
        interior = oracle_featurize(clip, normalize=False)[1:-1]
        assert np.all(interior.argmax(axis=1) == 0)


class TestFeaturize:
    def test_silence_gives_zero_raw_features(self):
        assert np.all(oracle_featurize(AudioClip(np.zeros(16000)), normalize=False) == 0.0)

    def test_frame_count(self):
        feats = featurize(AudioClip(np.zeros(3200)))
        assert feats.n_frames == 20
        assert featurize(AudioClip(np.zeros(3359))).n_frames == 20

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            featurize(AudioClip(np.zeros(FRAME_SAMPLES - 1)))

    def test_normalization_moments(self):
        lang = make_languages(3, seed=1)[1]
        clip = synthesize_utterance(lang, "ABCABD")
        values = featurize(clip).values
        np.testing.assert_allclose(values.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(values.var(axis=0), 1.0, atol=1e-6)

    def test_separability_across_all_language_symbol_pairs(self):
        # every (language, symbol) pair must put its energy in the mapped bin
        for lang in make_languages(6, seed=9):
            for sym in SYMBOLS:
                clip = synthesize_utterance(lang, sym * 3)
                interior = oracle_featurize(clip, normalize=False)[1:-1]
                expected_bin = FREQ_GRID.index(lang.freq_map[SYMBOLS.index(sym)])
                hit = np.mean(interior.argmax(axis=1) == expected_bin)
                assert hit >= 0.99


    def test_matches_inline_basis_oracle_at_two_rates(self):
        # 16 kHz matches the oracle; no other rate reaches featurize, because a clip
        # carries no rate and read_wav refuses a WAV at another (see test_audio.TestWavIO)
        rng = np.random.default_rng(8)
        lang = make_languages(3, seed=1)[1]
        tone = synthesize_utterance(lang, "HACEB")
        noise = AudioClip(rng.uniform(-0.9, 0.9, 17 * FRAME_SAMPLES + 33))
        for clip in (tone, noise):
            assert same_bits(featurize(clip).values, oracle_featurize(clip))

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 40),
        r=st.integers(0, FRAME_SAMPLES - 1),
        amplitude=st.floats(0.0, 1.0),
        tiled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_inline_basis_oracle(self, k, r, amplitude, tiled, seed):
        # a tiled clip repeats one frame, so every coordinate is constant over its frames
        rng = np.random.default_rng(seed)
        if tiled:
            x = np.tile(rng.uniform(-amplitude, amplitude, FRAME_SAMPLES), k + 1)[: k * FRAME_SAMPLES + r]
        else:
            x = rng.uniform(-amplitude, amplitude, k * FRAME_SAMPLES + r)
        clip = AudioClip(x)
        values = featurize(clip).values
        assert same_bits(values, oracle_featurize(clip))
        if tiled:  # every coordinate took the std <= 1e-12 branch: centred, not scaled up
            assert np.abs(values).max() <= 1e-12

    def test_cached_basis_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            _BASIS[0, 0] = 1.0
        grid = len(FREQ_GRID)
        assert _BASIS.shape == (FRAME_SAMPLES, 2 * grid)
        assert np.all(_BASIS[0, :grid] == 1.0) and np.all(_BASIS[0, grid:] == 0.0)

    def test_cached_tones_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            _TONES[0, 0] = 1.0
        assert _TONES.shape == (len(FREQ_GRID), SYMBOL_SAMPLES) and _TONES[0, 0] == 0.0


class TestFrameLabels:
    def test_two_symbols_twenty_frames(self):
        labels = frame_labels("AB", 20)
        assert labels[:10].tolist() == [0] * 10
        assert labels[10:].tolist() == [1] * 10

    def test_single_symbol(self):
        assert frame_labels("A", 7).tolist() == [0] * 7

    def test_three_symbols_ten_frames_boundaries(self):
        labels = frame_labels("ABC", 10)
        changes = [f for f in range(1, 10) if labels[f] != labels[f - 1]]
        assert changes == [4, 7]

    def test_surjective_and_monotone(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            text = "".join(SYMBOLS[i] for i in rng.integers(0, 8, size=rng.integers(1, 13)))
            n = int(rng.integers(1, 40))
            positions = (np.arange(n) * len(text)) // n
            assert np.all(np.diff(positions) >= 0)
            if n >= len(text):
                assert set(positions.tolist()) == set(range(len(text)))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="text has 2 symbols but the audio only 0 frames"):
            frame_labels("AB", 0)
        with pytest.raises(ValueError, match="text has 21 symbols but the audio only 20 frames"):
            frame_labels("A" * 21, 20)

    def test_matches_per_frame_lookup(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            text = "".join(SYMBOLS[i] for i in rng.integers(0, 8, size=rng.integers(1, 13)))
            n = int(rng.integers(len(text), 130))
            positions = (np.arange(n) * len(text)) // n
            expected = np.array([SYMBOLS.index(text[p]) for p in positions], dtype=np.int64)
            labels = frame_labels(text, n)
            assert labels.dtype == expected.dtype and np.array_equal(labels, expected)


class TestPlannedCounts:
    def test_default_counts(self):
        cfg = CorpusConfig()
        assert (cfg.pretrain_per_high, cfg.finetune_per_lang, cfg.valid_per_lang, cfg.test_per_lang) == (2000, 500, 100, 200)
        assert cfg.low_pretrain_count == 40  # 0.02 * 2000

    def test_pretrain_bias_ratio_exact(self):
        cfg = CorpusConfig(low_fraction=0.05, pretrain_per_high=200)
        assert cfg.low_pretrain_count / cfg.pretrain_per_high == 0.05


class TestCorpusConfig:
    INT_FIELDS = (
        "n_langs", "low_lang", "finetune_per_lang", "pretrain_per_high", "valid_per_lang", "test_per_lang",
        "min_len", "max_len", "seed",
    )

    @pytest.mark.parametrize("name", INT_FIELDS)
    @pytest.mark.parametrize("value", [1.5, True])
    def test_non_int_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
            CorpusConfig(**{name: value})

    @pytest.mark.parametrize(
        "value, message",
        [
            ("0.1", "must be a finite real number, got '0.1'"),
            (True, "must be a finite real number, got True"),
            (float("nan"), "must be a finite real number, got nan"),
            (float("inf"), "must be a finite real number, got inf"),
            pytest.param(10**400, f"must be a finite real number, got {10**400}", id="int-too-large-for-a-float"),
            (0.0, r"must be in \(0, 1\], got 0.0"),
            (1.5, r"must be in \(0, 1\], got 1.5"),
        ],
    )
    def test_bad_low_fraction_rejected(self, value, message):
        with pytest.raises(ValueError, match=f"^low_fraction {message}$"):
            CorpusConfig(low_fraction=value)

    def test_integral_low_fraction_accepted(self):
        assert CorpusConfig(low_fraction=1).low_pretrain_count == CorpusConfig().pretrain_per_high

    def test_fractional_count_rejected_before_anything_is_written(self, tmp_path):
        with pytest.raises(ValueError, match="finetune_per_lang must be an int, got 2.5"):
            generate_corpus(CorpusConfig(finetune_per_lang=2.5), tmp_path / "corpus")
        assert not (tmp_path / "corpus").exists()


class TestGenerateCorpus:
    def test_tiny_corpus_counts_and_balance(self, tiny_corpus):
        entries = read_manifest(tiny_corpus / "manifest.jsonl")
        by = Counter((e.split, e.lang) for e in entries)
        for lang in ("L0", "L1", "L2"):
            assert by[("finetune", lang)] == TINY.finetune_per_lang
            assert by[("valid", lang)] == TINY.valid_per_lang
            assert by[("test", lang)] == TINY.test_per_lang
        assert by[("pretrain", "L0")] == by[("pretrain", "L1")] == TINY.pretrain_per_high
        assert by[("pretrain", "L2")] == TINY.low_pretrain_count

    def test_ids_unique_and_splits_disjoint(self, tiny_corpus):
        entries = read_manifest(tiny_corpus / "manifest.jsonl")
        ids = [e.id for e in entries]
        assert len(ids) == len(set(ids))

    def test_regeneration_reproduces_texts(self, tmp_path, tiny_corpus):
        again = tmp_path / "again"
        generate_corpus(TINY, again)
        a = [(e.id, e.text) for e in read_manifest(tiny_corpus / "manifest.jsonl")]
        b = [(e.id, e.text) for e in read_manifest(again / "manifest.jsonl")]
        assert a == b

    # SHA-256 over every file generate_corpus(TINY) writes, each relative path then its bytes, in path order
    GOLDEN_SHA256 = "6076089f8fc91abec0f4384a98ea4755a55ca76c040cd5591ceac3d7ec494e6f"

    def test_golden_digest(self, tmp_path):
        generate_corpus(TINY, tmp_path)
        digest = hashlib.sha256()
        for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
            digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
        assert digest.hexdigest() == self.GOLDEN_SHA256

    def test_text_lengths_within_config(self, tiny_corpus):
        entries = read_manifest(tiny_corpus / "manifest.jsonl")
        assert all(TINY.min_len <= len(e.text) <= TINY.max_len for e in entries)


class TestLoadExamples:
    def test_examples_are_featurized_and_labeled(self, tiny_corpus):
        examples = load_examples(tiny_corpus, "test", TINY_LANGS)
        assert len(examples) == 3 * TINY.test_per_lang
        for ex in examples[:5]:
            assert ex.features.shape == (FRAMES_PER_SYMBOL * len(ex.text), 8)
            assert ex.labels.shape == (ex.features.shape[0],)
            assert set(ex.labels.tolist()) == {SYMBOLS.index(s) for s in ex.text}
        assert sorted({ex.lang for ex in examples}) == [0, 1, 2]

    def test_missing_split_rejected(self, tmp_path):
        write_wav(tmp_path / "ok.wav", synthesize_utterance(TINY_LANGS[0], "AB"))
        write_manifest(tmp_path / "manifest.jsonl", [ManifestEntry(id="ok-0", lang="L0", text="AB", wav="ok.wav", split="test")])
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(tmp_path))}: split 'valid' has no utterances$"):
            load_examples(tmp_path, "valid", TINY_LANGS)

    def test_unknown_split_rejected_before_any_read(self, tmp_path):
        # a misspelt split is a usage fault, not malformed data; the directory holds no manifest to read
        message = r"^split must be one of \('pretrain', 'finetune', 'valid', 'test'\), got 'tset'$"
        with pytest.raises(ValueError, match=message):
            load_examples(tmp_path, "tset", TINY_LANGS)

    # case -> (the bad entry's text, the sample rate of its WAV of "AB"'s samples or None for
    # no WAV, what the error says); at 16 kHz the WAV has 20 frames
    BAD_ENTRIES = {
        "unknown-symbol": ("ABZ", SAMPLE_RATE, r"unknown symbols \['Z'\]"),
        "empty-text": ("", SAMPLE_RATE, "text must be non-empty"),
        "missing-wav": ("AB", None, "No such file"),
        "more-symbols-than-frames": ("AB" * 108, SAMPLE_RATE, "text has 216 symbols but the audio only 20 frames"),
        "8-khz-wav": ("AB", 8000, "bad.wav: sampled at 8000 Hz, need 16000 Hz"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_ENTRIES))
    def test_bad_entry_names_manifest_and_id(self, tmp_path, tiny_corpus, case):
        text, wav_rate, message = self.BAD_ENTRIES[case]
        lang = TINY_LANGS[0]
        good = ManifestEntry(id="ok-0", lang="L0", text="AB", wav="ok.wav", split="test")
        write_wav(tmp_path / "ok.wav", synthesize_utterance(lang, "AB"))
        if wav_rate is not None:
            write_wav_at_rate(tmp_path / "bad.wav", wav_rate, synthesize_utterance(lang, "AB").samples)
        bad = ManifestEntry(id=f"bad-{case}", lang="L0", text=text, wav="bad.wav", split="test")
        manifest = write_manifest(tmp_path / "manifest.jsonl", [good, bad])
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(manifest))}: entry 'bad-{case}': .*{message}"):
            load_examples(tmp_path, "test", TINY_LANGS)

    def test_truncated_wav_names_manifest_id_and_file(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav(path, synthesize_utterance(TINY_LANGS[0], "AB"))
        path.write_bytes(path.read_bytes()[:-501])
        entry = ManifestEntry(id="cut-0", lang="L0", text="AB", wav="cut.wav", split="test")
        manifest = write_manifest(tmp_path / "manifest.jsonl", [entry])
        message = (
            rf"^{re.escape(str(manifest))}: entry 'cut-0': {re.escape(str(path))}: "
            "data chunk holds 5899 of the 6400 bytes its header declares$"
        )
        with pytest.raises(DataFormatError, match=message):
            load_examples(tmp_path, "test", TINY_LANGS)

    def test_empty_wav_names_manifest_id_and_file(self, tmp_path):
        write_wav_at_rate(tmp_path / "empty.wav", 16000, [])  # an empty clip cannot be built
        entry = ManifestEntry(id="empty-0", lang="L0", text="AB", wav="empty.wav", split="test")
        manifest = write_manifest(tmp_path / "manifest.jsonl", [entry])
        message = rf"^{re.escape(str(manifest))}: entry 'empty-0': {re.escape(str(tmp_path / 'empty.wav'))}: no samples$"
        with pytest.raises(DataFormatError, match=message):
            load_examples(tmp_path, "test", TINY_LANGS)


@st.composite
def small_corpus_configs(draw):
    """Corpus configs of at most a few dozen one- to three-symbol utterances."""
    n_langs = draw(st.integers(2, 3))
    min_len = draw(st.integers(1, 2))
    counts = {name: draw(st.integers(1, 2)) for name in ("finetune_per_lang", "pretrain_per_high", "valid_per_lang", "test_per_lang")}
    return CorpusConfig(
        n_langs=n_langs,
        low_lang=draw(st.integers(0, n_langs - 1)),
        low_fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
        min_len=min_len,
        max_len=draw(st.integers(min_len, 3)),
        seed=draw(st.integers(-(2**63), 2**63)),
        **counts,
    )


def _set_config(**fields):
    def make(meta):
        return json.dumps({"config": {**meta["config"], **fields}})

    return make


def _drop_config(name):
    def make(meta):
        return json.dumps({"config": {k: v for k, v in meta["config"].items() if k != name}})

    return make


class TestLoadCorpusMeta:
    # case -> (corpus.json's text from the good file's parsed metadata, what the error says)
    BAD_META = {
        "truncated": (lambda meta: "{", "Expecting property name"),
        "top-level-list": (lambda meta: "[]", "top level is array, not an object$"),
        "no-config": (lambda meta: "{}", r"top level: missing keys \['config'\]$"),
        "language-list-of-an-older-corpus": (
            lambda meta: json.dumps({**meta, "languages": [{"id": 0}]}),
            r"top level: unknown keys \['languages'\]$",
        ),
        "config-not-an-object": (lambda meta: json.dumps({"config": [3]}), "config is array, not an object$"),
        "low-lang-out-of-range": (_set_config(n_langs=3, low_lang=5), "low_lang 5 out of range"),
        "config-with-sample-rate": (_set_config(sample_rate=16000), r"config: unknown keys \['sample_rate'\]$"),
        **{f"no-{f.name}": (_drop_config(f.name), rf"config: missing keys \['{f.name}'\]$") for f in fields(CorpusConfig)},
        "seed-a-float": (_set_config(seed=1.5), "seed must be an int, got 1.5"),
        "count-a-float": (_set_config(finetune_per_lang=2.5), "finetune_per_lang must be an int, got 2.5"),
        "n-langs-a-bool": (_set_config(n_langs=True), "n_langs must be an int, got True"),
        "low-fraction-a-string": (_set_config(low_fraction="0.1"), "low_fraction must be a finite real number, got '0.1'"),
        "low-fraction-too-large-for-a-float": (
            _set_config(low_fraction=10**400),
            f"low_fraction must be a finite real number, got {10**400}$",
        ),
    }

    @pytest.mark.parametrize("case", sorted(BAD_META))
    def test_malformed_file_named(self, tmp_path, tiny_corpus, case):
        make_text, message = self.BAD_META[case]
        path = tmp_path / "corpus.json"
        path.write_text(make_text(json.loads((tiny_corpus / "corpus.json").read_text())))
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: .*{message}"):
            load_corpus_meta(tmp_path)

    def test_file_holds_only_the_config_and_languages_derive_from_it(self, tiny_corpus):
        assert json.loads((tiny_corpus / "corpus.json").read_text()) == {"config": asdict(TINY)}
        config, languages = load_corpus_meta(tiny_corpus)
        assert config == TINY
        assert languages == make_languages(TINY.n_langs, TINY.seed)

    @settings(max_examples=25, deadline=None)
    @given(config=small_corpus_configs())
    def test_reader_returns_what_writer_accepted(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            generate_corpus(config, tmp)
            assert load_corpus_meta(tmp) == (config, make_languages(config.n_langs, config.seed))
