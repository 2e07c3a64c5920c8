"""Synthetic tone-language benchmark.

Each language maps the shared 8-symbol alphabet onto the same 8-frequency
grid through its own permutation, so the correct symbol for a given tone
depends on which language is being spoken. The model therefore has to use
the language conditioning signal, and a language that is rare in pretraining
ends up systematically mistranscribed: the bias the fine-tuning experiments
work against.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from .audio import SAMPLE_RATE, AudioClip, read_wav, write_wav
from .manifest import ManifestEntry, read_manifest, write_manifest
from .util import DataFormatError, derive_seed, parse_json, read_file, require_finite_reals, require_ints, require_keys, write_file

SYMBOLS = "ABCDEFGH"
FREQ_GRID = (500.0, 700.0, 900.0, 1100.0, 1300.0, 1500.0, 1700.0, 1900.0)
FRAME_SAMPLES = 160  # also the hop (no overlap)
SYMBOL_SAMPLES = 1600
FRAMES_PER_SYMBOL = SYMBOL_SAMPLES // FRAME_SAMPLES
SPLITS = ("pretrain", "finetune", "valid", "test")


@dataclass(frozen=True)
class LanguageSpec:
    id: int
    freq_map: tuple[float, ...]  # symbol index -> grid frequency

    def __post_init__(self):
        if Counter(self.freq_map) != Counter(FREQ_GRID):
            raise ValueError(f"freq_map must hold each FREQ_GRID frequency exactly once, got {self.freq_map}")

    @property
    def name(self) -> str:
        return f"L{self.id}"


@dataclass(frozen=True)
class CorpusConfig:
    sample_rate: ClassVar[int] = SAMPLE_RATE  # not a field; the benchmark reads config.sample_rate
    n_langs: int = 6
    low_lang: int = 5
    finetune_per_lang: int = 500
    low_fraction: float = 0.02
    pretrain_per_high: int = 2000
    valid_per_lang: int = 100
    test_per_lang: int = 200
    min_len: int = 2
    max_len: int = 12
    seed: int = 0

    def __post_init__(self):
        counts = ("finetune_per_lang", "pretrain_per_high", "valid_per_lang", "test_per_lang")
        require_ints(self, "n_langs", "low_lang", *counts, "min_len", "max_len", "seed")
        require_finite_reals(self, "low_fraction")
        if not 2 <= self.n_langs <= 8:
            raise ValueError(f"n_langs must be in [2, 8], got {self.n_langs}")
        if not 0 <= self.low_lang < self.n_langs:
            raise ValueError(f"low_lang {self.low_lang} out of range")
        for name in counts:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.low_fraction <= 1:
            raise ValueError(f"low_fraction must be in (0, 1], got {self.low_fraction}")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("need 1 <= min_len <= max_len")

    @property
    def low_pretrain_count(self) -> int:
        return max(1, round(self.low_fraction * self.pretrain_per_high))


_CORPUS_CONFIG_KEYS = tuple(f.name for f in fields(CorpusConfig))


def make_languages(n: int, seed: int) -> list[LanguageSpec]:
    """n distinct permutations of the frequency grid; language 0 is the identity map."""
    if not 2 <= n <= 8:
        raise ValueError(f"need 2 <= n <= 8 languages, got {n}")
    rng = np.random.default_rng(derive_seed(seed, "languages"))
    perms = [tuple(range(8))]
    while len(perms) < n:
        cand = tuple(int(i) for i in rng.permutation(8))
        if cand not in perms:
            perms.append(cand)
    return [LanguageSpec(id=i, freq_map=tuple(FREQ_GRID[j] for j in perm)) for i, perm in enumerate(perms)]


def symbol_ids(text: str) -> np.ndarray:
    """Each symbol's index in ``SYMBOLS``; raises ``ValueError`` for an empty text or a symbol outside it."""
    if not text:
        raise ValueError("text must be non-empty")
    unknown = sorted(set(text) - set(SYMBOLS))
    if unknown:
        raise ValueError(f"unknown symbols {unknown} in text; alphabet is {SYMBOLS}")
    return np.array([SYMBOLS.index(s) for s in text], dtype=np.int64)


def _tone_table() -> np.ndarray:
    """[grid x ``SYMBOL_SAMPLES``] symbol tones, one row per ``FREQ_GRID`` frequency (read-only).

    Each row is a 0.3-amplitude tone with 5 ms raised-cosine onset/offset ramps.
    """
    ramp = round(0.005 * SAMPLE_RATE)
    env = np.ones(SYMBOL_SAMPLES)
    edge = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    env[:ramp] = edge
    env[-ramp:] = edge[::-1]
    t = np.arange(SYMBOL_SAMPLES) / SAMPLE_RATE
    tones = np.array([0.3 * np.sin(2 * np.pi * f * t) * env for f in FREQ_GRID])
    tones.setflags(write=False)
    return tones


_TONES = _tone_table()


def synthesize_utterance(spec: LanguageSpec, text: str) -> AudioClip:
    """Concatenated ``SYMBOL_SAMPLES``-long tones, one per symbol; ``symbol_ids`` checks the text.

    Each symbol's tone is the ``_TONES`` row of the language's frequency for it.
    """
    rows = [FREQ_GRID.index(spec.freq_map[i]) for i in symbol_ids(text)]
    return AudioClip(_TONES[rows].ravel())


# ---------------------------------------------------------------------------
# corpus generation


def _random_text(rng: np.random.Generator, min_len: int, max_len: int) -> str:
    length = int(rng.integers(min_len, max_len + 1))
    return "".join(SYMBOLS[i] for i in rng.integers(0, len(SYMBOLS), size=length))


def _split_counts(config: CorpusConfig, split: str, lang: LanguageSpec) -> int:
    if split == "pretrain":
        return config.low_pretrain_count if lang.id == config.low_lang else config.pretrain_per_high
    if split == "finetune":
        return config.finetune_per_lang
    if split == "valid":
        return config.valid_per_lang
    return config.test_per_lang


def generate_corpus(config: CorpusConfig, out_dir: str | Path) -> list[ManifestEntry]:
    """Write WAVs plus manifest.jsonl and corpus.json (the config alone) under out_dir.

    Fine-tune/valid/test splits are exactly balanced across languages; the
    pretrain split gives the low-resource language only ``low_fraction`` of a
    high-resource language's count. Deterministic in ``config.seed``. A
    config that ``json`` cannot encode (a ``Fraction`` low_fraction, say)
    raises before anything is written.
    """
    meta = json.dumps({"config": asdict(config)}, indent=2, sort_keys=True)
    out_dir = Path(out_dir)
    languages = make_languages(config.n_langs, config.seed)
    entries = []
    for lang in languages:
        for split in SPLITS:
            rng = np.random.default_rng(derive_seed(config.seed, "text", split, lang.id))
            for i in range(_split_counts(config, split, lang)):
                text = _random_text(rng, config.min_len, config.max_len)
                utt_id = f"{split}-{lang.name}-{i:05d}"
                rel = f"{split}/{lang.name}/{utt_id}.wav"
                write_wav(out_dir / rel, synthesize_utterance(lang, text))
                entries.append(
                    ManifestEntry(id=utt_id, lang=lang.name, text=text, wav=rel, split=split)
                )
    entries.sort(key=lambda e: e.id)
    write_manifest(out_dir / "manifest.jsonl", entries)
    write_file(out_dir / "corpus.json", meta)
    return entries


def load_corpus_meta(corpus_dir: str | Path) -> tuple[CorpusConfig, list[LanguageSpec]]:
    """The config ``generate_corpus`` recorded in corpus.json, and the languages derived from it.

    Raises ``DataFormatError`` naming the file for what ``util.require_keys``
    or ``CorpusConfig`` refuses.
    """
    path = Path(corpus_dir) / "corpus.json"
    try:
        meta = parse_json(read_file(path, "corpus metadata"))
        require_keys("top level", meta, ("config",))
        require_keys("config", meta["config"], _CORPUS_CONFIG_KEYS)
        config = CorpusConfig(**meta["config"])
    except ValueError as e:
        raise DataFormatError(f"{path}: {e}") from e
    return config, make_languages(config.n_langs, config.seed)


# ---------------------------------------------------------------------------
# featurization


@dataclass(frozen=True)
class FrameFeatures:
    """[frames x 8] log-compressed filterbank energies."""

    values: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


def _filterbank_basis() -> np.ndarray:
    """[FRAME_SAMPLES x 2 grid] cosine projections at ``SAMPLE_RATE``, then sine ones (read-only)."""
    n = np.arange(FRAME_SAMPLES)[:, None]
    omega = 2.0 * np.pi * np.asarray(FREQ_GRID)[None, :] / SAMPLE_RATE
    basis = np.hstack([np.cos(n * omega), np.sin(n * omega)])
    basis.setflags(write=False)
    return basis


_BASIS = _filterbank_basis()


def featurize(clip: AudioClip) -> FrameFeatures:
    """Per-frame Goertzel energies at the grid frequencies, then ln(1 + E), normalized.

    Frames are ``FRAME_SAMPLES`` long with no overlap. One product against
    ``_BASIS``, the cosine and sine bases side by side, is squared in place,
    and each frequency's two squares add to its Goertzel energy. Each coordinate
    is then mean-variance normalized over the utterance (coordinates with
    vanishing variance are left centered). The log energies are centred once
    and the standard deviation reuses the centred values; ``ndarray.mean`` and
    ``ndarray.std`` do these same operations in this order, so the features
    equal theirs bit for bit.
    Raises ``ValueError`` for a clip shorter than one frame.
    """
    n_frames = len(clip) // FRAME_SAMPLES
    if n_frames < 1:
        raise ValueError(f"clip too short to featurize: {len(clip)} samples < {FRAME_SAMPLES}")
    frames = clip.samples[: n_frames * FRAME_SAMPLES].reshape(n_frames, FRAME_SAMPLES)
    projections = frames @ _BASIS
    projections *= projections
    grid = len(FREQ_GRID)
    values = np.log1p(projections[:, :grid] + projections[:, grid:])
    values -= values.sum(axis=0) / n_frames
    std = np.sqrt((values * values).sum(axis=0) / n_frames)
    values /= np.where(std > 1e-12, std, 1.0)
    return FrameFeatures(values=values)


def frame_labels(text: str, n_frames: int) -> np.ndarray:
    """Proportional frame-to-symbol alignment: label[f] = text[floor(f * len / n)].

    Works for time-stretched audio where frames per symbol are not constant.
    Raises ``ValueError`` for a text ``symbol_ids`` refuses, or more symbols
    than frames, where some symbols would get no frame.
    """
    symbols = symbol_ids(text)
    if len(text) > n_frames:
        raise ValueError(f"text has {len(text)} symbols but the audio only {n_frames} frames")
    return symbols[(np.arange(n_frames) * len(text)) // n_frames]


# ---------------------------------------------------------------------------
# featurized dataset loading


@dataclass(frozen=True, eq=False)
class FrameExample:
    """A featurized utterance ready for training or decoding: immutable, and equal only to itself.

    ``features`` and ``labels`` are read-only: a writeable array is stored as
    a read-only copy, a read-only one as given. Equality and hashing go by
    identity, the key of ``model.run_phase``'s input cache, and
    ``copy.deepcopy`` returns the example itself.
    """

    utt_id: str
    lang: int
    text: str
    features: np.ndarray  # normalized [frames x 8]
    labels: np.ndarray  # [frames]

    def __post_init__(self):
        for name in ("features", "labels"):
            value = np.asarray(getattr(self, name))
            if value.flags.writeable:
                value = value.copy()
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __deepcopy__(self, memo):
        return self


def load_examples(corpus_dir: str | Path, split: str, languages: list[LanguageSpec]) -> list[FrameExample]:
    """Read, featurize, and label every manifest entry of one split.

    ``languages`` are the corpus's, from ``load_corpus_meta``: an augmented
    directory has no corpus.json of its own. An entry whose WAV ``read_wav``
    refuses, or whose text ``frame_labels`` refuses for its frame count, raises
    ``DataFormatError`` naming the manifest and the entry id. A ``split`` not
    in ``SPLITS`` raises ``ValueError`` before anything is read.
    """
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    corpus_dir = Path(corpus_dir)
    by_name = {l.name: l.id for l in languages}
    manifest_path = corpus_dir / "manifest.jsonl"
    examples = []
    for entry in read_manifest(manifest_path):
        if entry.split != split:
            continue
        if entry.lang not in by_name:
            raise DataFormatError(f"{manifest_path}: entry {entry.id!r}: unknown language {entry.lang!r}")
        try:
            # opened as the manifest names it: the OS follows any link, and resolving it first would cost a stat per component
            feats = featurize(read_wav(corpus_dir / entry.wav))
            labels = frame_labels(entry.text, feats.n_frames)
        except (DataFormatError, ValueError) as e:
            raise DataFormatError(f"{manifest_path}: entry {entry.id!r}: {e}") from e
        # both arrays are this call's own, so marking them read-only spares FrameExample a copy
        feats.values.flags.writeable = False
        labels.flags.writeable = False
        examples.append(
            FrameExample(
                utt_id=entry.id,
                lang=by_name[entry.lang],
                text=entry.text,
                features=feats.values,
                labels=labels,
            )
        )
    if not examples:
        raise DataFormatError(f"{corpus_dir}: split {split!r} has no utterances")
    examples.sort(key=lambda e: e.utt_id)
    return examples
