"""Synthetic tone-language benchmark.

Each language maps the shared 8-symbol alphabet onto the same 8-frequency
grid through its own permutation, so the correct symbol for a given tone
depends on which language is being spoken. The model therefore has to use
the language conditioning signal, and a language that is rare in pretraining
ends up systematically mistranscribed: the bias the fine-tuning experiments
work against.

Featurization is a Goertzel filterbank: per 10 ms frame, log-compressed
energy at each grid frequency, mean-variance normalized per utterance.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audio import AudioClip, read_wav, write_wav
from .manifest import ManifestEntry, read_manifest, write_manifest
from .util import DataFormatError, derive_seed

SYMBOLS = "ABCDEFGH"
FREQ_GRID = (500.0, 700.0, 900.0, 1100.0, 1300.0, 1500.0, 1700.0, 1900.0)
FRAME_SAMPLES = 160  # 10 ms at 16 kHz, also the hop (no overlap)
SPLITS = ("pretrain", "finetune", "valid", "test")

HIGH = "high"
LOW = "low"


@dataclass(frozen=True)
class LanguageSpec:
    id: int
    token: str
    freq_map: tuple[float, ...]  # symbol index -> grid frequency
    resource_class: str

    @property
    def name(self) -> str:
        return f"L{self.id}"


@dataclass(frozen=True)
class CorpusConfig:
    n_langs: int = 6
    low_lang: int = 5
    finetune_per_lang: int = 500
    low_fraction: float = 0.02
    pretrain_per_high: int = 2000
    valid_per_lang: int = 100
    test_per_lang: int = 200
    sample_rate: int = 16000
    symbol_ms: int = 100
    min_len: int = 2
    max_len: int = 12
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.n_langs <= 8:
            raise ValueError(f"n_langs must be in [2, 8], got {self.n_langs}")
        if not 0 <= self.low_lang < self.n_langs:
            raise ValueError(f"low_lang {self.low_lang} out of range")
        for name in ("finetune_per_lang", "pretrain_per_high", "valid_per_lang", "test_per_lang"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.low_fraction <= 1:
            raise ValueError(f"low_fraction must be in (0, 1], got {self.low_fraction}")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("need 1 <= min_len <= max_len")

    @property
    def low_pretrain_count(self) -> int:
        return max(1, round(self.low_fraction * self.pretrain_per_high))


def make_languages(n: int, low_id: int, seed: int) -> list[LanguageSpec]:
    """n distinct permutations of the frequency grid; language 0 is the identity map."""
    if not 2 <= n <= 8:
        raise ValueError(f"need 2 <= n <= 8 languages, got {n}")
    if not 0 <= low_id < n:
        raise ValueError(f"low_id {low_id} out of range for {n} languages")
    rng = np.random.default_rng(derive_seed(seed, "languages"))
    perms = [tuple(range(8))]
    while len(perms) < n:
        cand = tuple(int(i) for i in rng.permutation(8))
        if cand not in perms:
            perms.append(cand)
    return [
        LanguageSpec(
            id=i,
            token=f"<|L{i}|>",
            freq_map=tuple(FREQ_GRID[j] for j in perm),
            resource_class=LOW if i == low_id else HIGH,
        )
        for i, perm in enumerate(perms)
    ]


def synthesize_utterance(spec: LanguageSpec, text: str, sample_rate: int = 16000, symbol_ms: int = 100) -> AudioClip:
    """Concatenated fixed-duration sine segments, one per symbol.

    Each segment is a 0.3-amplitude tone at the language's frequency for that
    symbol, with 5 ms raised-cosine onset/offset ramps.
    """
    if not text:
        raise ValueError("text must be non-empty")
    seg_len = round(symbol_ms / 1000 * sample_rate)
    ramp = round(0.005 * sample_rate)
    env = np.ones(seg_len)
    if ramp:
        edge = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
        env[:ramp] = edge
        env[-ramp:] = edge[::-1]
    t = np.arange(seg_len) / sample_rate
    segments = []
    for sym in text:
        idx = SYMBOLS.find(sym)
        if idx < 0:
            raise ValueError(f"unknown symbol {sym!r}; alphabet is {SYMBOLS}")
        segments.append(0.3 * np.sin(2 * np.pi * spec.freq_map[idx] * t) * env)
    return AudioClip(sample_rate=sample_rate, samples=np.concatenate(segments))


# ---------------------------------------------------------------------------
# corpus generation


def _random_text(rng: np.random.Generator, min_len: int, max_len: int) -> str:
    length = int(rng.integers(min_len, max_len + 1))
    return "".join(SYMBOLS[i] for i in rng.integers(0, len(SYMBOLS), size=length))


def _split_counts(config: CorpusConfig, split: str, lang: LanguageSpec) -> int:
    if split == "pretrain":
        return config.low_pretrain_count if lang.resource_class == LOW else config.pretrain_per_high
    if split == "finetune":
        return config.finetune_per_lang
    if split == "valid":
        return config.valid_per_lang
    return config.test_per_lang


def planned_counts(config: CorpusConfig) -> dict[str, dict[str, int]]:
    """Per-split per-language utterance counts implied by a corpus config."""
    languages = make_languages(config.n_langs, config.low_lang, config.seed)
    return {
        split: {lang.name: _split_counts(config, split, lang) for lang in languages}
        for split in SPLITS
    }


def generate_corpus(config: CorpusConfig, out_dir: str | Path) -> list[ManifestEntry]:
    """Write WAVs plus manifest.jsonl and corpus.json under out_dir.

    Fine-tune/valid/test splits are exactly balanced across languages; the
    pretrain split gives the low-resource language only ``low_fraction`` of a
    high-resource language's count. Deterministic in ``config.seed``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    languages = make_languages(config.n_langs, config.low_lang, config.seed)
    entries = []
    for lang in languages:
        for split in SPLITS:
            rng = np.random.default_rng(derive_seed(config.seed, "text", split, lang.id))
            for i in range(_split_counts(config, split, lang)):
                text = _random_text(rng, config.min_len, config.max_len)
                utt_id = f"{split}-{lang.name}-{i:05d}"
                rel = f"{split}/{lang.name}/{utt_id}.wav"
                clip = synthesize_utterance(
                    lang, text, sample_rate=config.sample_rate, symbol_ms=config.symbol_ms
                )
                write_wav(out_dir / rel, clip)
                entries.append(
                    ManifestEntry(id=utt_id, lang=lang.name, text=text, wav=rel, split=split)
                )
    entries.sort(key=lambda e: e.id)
    write_manifest(out_dir / "manifest.jsonl", entries)
    corpus_meta = {"config": asdict(config), "languages": [asdict(l) for l in languages]}
    (out_dir / "corpus.json").write_text(json.dumps(corpus_meta, indent=2, sort_keys=True))
    return entries


def load_corpus_meta(corpus_dir: str | Path) -> tuple[CorpusConfig, list[LanguageSpec]]:
    path = Path(corpus_dir) / "corpus.json"
    if not path.exists():
        raise DataFormatError(f"{corpus_dir}: missing corpus.json")
    try:
        meta = json.loads(path.read_text())
        if not isinstance(meta, dict):
            raise DataFormatError(f"{path}: top level is {type(meta).__name__}, not an object")
        config = CorpusConfig(**meta["config"])
        languages = [
            LanguageSpec(id=l["id"], token=l["token"], freq_map=tuple(l["freq_map"]), resource_class=l["resource_class"])
            for l in meta["languages"]
        ]
    except KeyError as e:
        raise DataFormatError(f"{path}: missing field {e}") from e
    except (OSError, ValueError, TypeError) as e:
        raise DataFormatError(f"{path}: {e}") from e
    return config, languages


# ---------------------------------------------------------------------------
# featurization


@dataclass(frozen=True)
class FrameFeatures:
    """[frames x 8] log-compressed filterbank energies."""

    values: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


@functools.lru_cache(maxsize=None)
def _filterbank_basis(sample_rate: int) -> tuple[np.ndarray, np.ndarray]:
    """[FRAME_SAMPLES x grid] cosine and sine projections, built once per sample rate (read-only)."""
    n = np.arange(FRAME_SAMPLES)[:, None]
    omega = 2.0 * np.pi * np.asarray(FREQ_GRID)[None, :] / sample_rate
    basis = np.cos(n * omega), np.sin(n * omega)
    for arr in basis:
        arr.setflags(write=False)
    return basis


def featurize(clip: AudioClip, normalize: bool = True) -> FrameFeatures:
    """Per-frame Goertzel energies at the grid frequencies, then ln(1 + E).

    Frames are 160 samples with a 160-sample hop; the energies are computed
    by direct projection, which equals the Goertzel recurrence value.
    With ``normalize`` each coordinate is mean-variance normalized over the
    utterance (coordinates with vanishing variance are left centered).
    """
    n_frames = len(clip) // FRAME_SAMPLES
    if n_frames < 1:
        raise ValueError(f"clip too short to featurize: {len(clip)} samples < {FRAME_SAMPLES}")
    frames = clip.samples[: n_frames * FRAME_SAMPLES].reshape(n_frames, FRAME_SAMPLES)
    cos_b, sin_b = _filterbank_basis(clip.sample_rate)
    energy = (frames @ cos_b) ** 2 + (frames @ sin_b) ** 2
    values = np.log1p(energy)
    if normalize:
        mean = values.mean(axis=0)
        std = values.std(axis=0)
        values = (values - mean) / np.where(std > 1e-12, std, 1.0)
    return FrameFeatures(values=values)


def frame_labels(text: str, n_frames: int) -> np.ndarray:
    """Proportional frame-to-symbol alignment: label[f] = text[floor(f * len / n)].

    Works for time-stretched audio where frames per symbol are not constant.
    Raises ``ValueError`` for an empty text, a symbol outside ``SYMBOLS``, or
    more symbols than frames, where some symbols would get no frame.
    """
    if not text:
        raise ValueError("text must be non-empty")
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    unknown = sorted(set(text) - set(SYMBOLS))
    if unknown:
        raise ValueError(f"unknown symbols {unknown} in text; alphabet is {SYMBOLS}")
    if len(text) > n_frames:
        raise ValueError(f"text has {len(text)} symbols but the audio only {n_frames} frames")
    symbols = np.array([SYMBOLS.index(s) for s in text], dtype=np.int64)
    return symbols[(np.arange(n_frames) * len(text)) // n_frames]


# ---------------------------------------------------------------------------
# featurized dataset loading


@dataclass(frozen=True)
class FrameExample:
    """A featurized utterance ready for training or decoding."""

    utt_id: str
    lang: int
    text: str
    features: np.ndarray  # normalized [frames x 8]
    labels: np.ndarray  # [frames]


def load_examples(corpus_dir: str | Path, split: str, languages: list[LanguageSpec] | None = None) -> list[FrameExample]:
    """Read, featurize, and label every manifest entry of one split.

    An entry whose WAV cannot be read, whose text is empty or holds a symbol
    outside ``SYMBOLS``, or whose text has more symbols than its audio has
    frames raises ``DataFormatError`` naming the manifest and the entry id.
    """
    corpus_dir = Path(corpus_dir)
    if languages is None:
        _, languages = load_corpus_meta(corpus_dir)
    by_name = {l.name: l.id for l in languages}
    manifest_path = corpus_dir / "manifest.jsonl"
    examples = []
    for entry in read_manifest(manifest_path):
        if entry.split != split:
            continue
        if entry.lang not in by_name:
            raise DataFormatError(f"{manifest_path}: entry {entry.id!r}: unknown language {entry.lang!r}")
        try:
            # the path the OS opens is the one resolve_wav would name; resolving it costs a stat per component
            feats = featurize(read_wav(corpus_dir / entry.wav))
            labels = frame_labels(entry.text, feats.n_frames)
        except (DataFormatError, OSError, ValueError) as e:
            raise DataFormatError(f"{manifest_path}: entry {entry.id!r}: {e}") from e
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
