"""Deterministic waveform augmentation over one WAV format: 16-bit mono PCM at ``SAMPLE_RATE`` (16 kHz).

A clip carries no rate of its own: ``read_wav`` refuses any other rate.
Four transforms: time stretch (windowed overlap-add), pitch shift (linear
resample plus inverse stretch), gain in dB, and additive Gaussian noise.
Every transform is a pure function of (input, parameters, seed) and hard-clips
its output to [-1, 1], matching 16-bit write semantics. Per clip,
``augment_clip`` draws a stretch rate in [0.9, 1.1], a gain in [-6, 6] dB and
a noise sigma in [0.001, 0.01] (the fixed ranges below), and whole semitones
from the one range ``AugmentSpec`` holds. The dataset pipeline derives one
seed per file from the entry id, so augmented outputs do not depend on
processing order.
"""

from __future__ import annotations

import math
import numbers
import os
import wave
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .manifest import ManifestEntry, read_manifest, resolve_wav, write_manifest
from .util import DataFormatError, derive_seed, require_ints

SAMPLE_RATE = 16000
WINDOW_SAMPLES = 400  # overlap-add analysis window, 25 ms
HOP_SAMPLES = 160  # analysis hop, 10 ms
SEARCH_SAMPLES = 160  # waveform-similarity search bound around the nominal analysis position, 10 ms
STRETCH_RANGE = (0.9, 1.1)
GAIN_RANGE_DB = (-6.0, 6.0)
NOISE_SIGMA_RANGE = (0.001, 0.01)


@dataclass(frozen=True)
class AudioClip:
    """Mono waveform in [-1, 1] at ``SAMPLE_RATE``."""

    sample_rate: ClassVar[int] = SAMPLE_RATE  # not a field; the benchmark's tracer reads clip.sample_rate
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")

    def __len__(self) -> int:
        return len(self.samples)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class AugmentSpec:
    """The semitone range and base seed of one augmentation pass; the other ranges are module constants."""

    pitch_range_semitones: tuple[int, int] = (-2, 2)
    seed: int = 0

    def __post_init__(self):
        # the bounds pitch_shift accepts, checked here so that a bad spec fails
        # before augment_dataset writes anything
        require_ints(self, "seed")
        lo, hi = self.pitch_range_semitones
        if not (_is_int(lo) and _is_int(hi)):
            raise ValueError(f"pitch_range_semitones: bounds must be integers, got {self.pitch_range_semitones}")
        if not -12 <= lo <= hi <= 12:
            raise ValueError(f"pitch_range_semitones: need -12 <= min <= max <= 12, got {self.pitch_range_semitones}")


# ---------------------------------------------------------------------------
# WAV I/O (RIFF/WAVE, PCM code 1, 16-bit signed little-endian, mono)


def read_wav(path: str | Path) -> AudioClip:
    try:
        with wave.open(str(path), "rb") as w:
            if w.getcomptype() != "NONE":
                raise DataFormatError(f"{path}: compressed WAV (comptype {w.getcomptype()}), need PCM")
            if w.getnchannels() != 1:
                raise DataFormatError(f"{path}: {w.getnchannels()} channels, need mono")
            if w.getsampwidth() != 2:
                raise DataFormatError(f"{path}: {8 * w.getsampwidth()}-bit samples, need 16-bit")
            if w.getframerate() != SAMPLE_RATE:
                raise DataFormatError(f"{path}: sampled at {w.getframerate()} Hz, need {SAMPLE_RATE} Hz")
            raw = w.readframes(w.getnframes())
    except wave.Error as e:
        raise DataFormatError(f"{path}: not a readable RIFF/WAVE PCM file: {e}") from e
    except EOFError as e:
        raise DataFormatError(f"{path}: truncated WAV header") from e
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioClip(samples)


def write_wav(path: str | Path, clip: AudioClip) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scaled = np.rint(np.clip(clip.samples, -1.0, 1.0) * 32768.0)
    ints = np.clip(scaled, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(ints.tobytes())


# ---------------------------------------------------------------------------
# transforms


def _clipped(samples: np.ndarray) -> np.ndarray:
    return np.clip(samples, -1.0, 1.0)


def apply_gain(clip: AudioClip, gain_db: float) -> AudioClip:
    """Scale by 10^(gain_db/20), hard-clipping at the write bound."""
    if not math.isfinite(gain_db):
        raise ValueError(f"gain must be finite, got {gain_db}")
    factor = 10.0 ** (gain_db / 20.0)
    return AudioClip(_clipped(clip.samples * factor))


def add_gaussian_noise(clip: AudioClip, sigma: float, seed: int) -> AudioClip:
    """Add i.i.d. Normal(0, sigma^2) noise from a seeded generator."""
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    noise = np.random.default_rng(seed).normal(0.0, sigma, size=len(clip))
    return AudioClip(_clipped(clip.samples + noise))


def _hann(length: int) -> np.ndarray:
    # evaluated at bin centers so the window never reaches zero and the
    # overlap-add normalization stays well-conditioned at clip edges
    m = np.arange(length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * (m + 0.5) / length)


def _best_analysis_position(
    x: np.ndarray, norms: np.ndarray, nominal: int, ideal: int, cmp_len: int, tol: int
) -> int:
    """Analysis start near ``nominal`` whose waveform best continues the previous frame.

    Scores candidates by normalized cross-correlation against the ideal
    continuation segment; ties resolve toward the nominal position so timing
    stays faithful and the search is deterministic. ``norms[i]`` must be the
    Euclidean norm of ``x[i : i + cmp_len]`` for every start ``i`` in
    ``[0, len(x) - cmp_len]``, which must not be empty; ``time_stretch`` computes them once per call.
    """
    n = len(x)
    anchor = max(0, min(nominal, n - cmp_len))
    lo = max(0, anchor - tol)
    hi = min(n - cmp_len, anchor + tol)
    template = x[max(0, min(ideal, n - cmp_len)) :][:cmp_len]
    scores = np.correlate(x[lo : hi + cmp_len], template, "valid") / (norms[lo : hi + 1] + 1e-12)
    best = scores.max()
    good = np.nonzero(scores >= best - 1e-9 * max(1.0, abs(best)))[0]
    return int(lo + good[np.argmin(np.abs(good + lo - nominal))])


def time_stretch(clip: AudioClip, rate: float) -> AudioClip:
    """Change duration to round(len / rate) samples, preserving pitch.

    Windowed overlap-add: analysis frames taken at a fixed hop are re-spaced
    to a synthesis hop of (analysis hop / rate) and blended under a Hann
    window, with the accumulated window sum normalizing each output sample.
    Re-spacing alone would scramble the phase of periodic content, so each
    analysis position is refined by a bounded waveform-similarity search
    against the continuation of the previously placed frame. The norm of
    every ``frame``-sample analysis window is computed once, up front, as
    the square root of a pairwise sum of squares per window; running sums
    are avoided because their cancellation misstates near-silent windows.
    """
    if not 0.5 <= rate <= 2.0:
        raise ValueError(f"stretch rate must be in [0.5, 2.0], got {rate}")
    n = len(clip)
    if n == 0:
        return clip
    frame, hop, tol = WINDOW_SAMPLES, HOP_SAMPLES, SEARCH_SAMPLES
    syn_hop = hop / rate
    n_out = max(1, round(n / rate))
    n_frames = max(1, math.ceil(max(0, n_out - frame) / syn_hop) + 1)

    window = _hann(frame)
    buf_len = max(n_out, round((n_frames - 1) * syn_hop) + frame)
    acc = np.zeros(buf_len)
    norm = np.zeros(buf_len)
    x = clip.samples
    # a clip shorter than one frame is never searched (every frame is a tail frame)
    norms = np.sqrt(np.lib.stride_tricks.sliding_window_view(x * x, frame).sum(axis=1)) if n >= frame else None
    prev_ana = prev_syn = 0
    for k in range(n_frames):
        syn = round(k * syn_hop)
        nominal = k * hop
        if nominal >= n:
            break
        if k == 0 or nominal + frame > n:
            # no search for the first frame, nor for tail frames whose window
            # runs past the input: keeping the nominal position preserves
            # alignment there (the short chunk is zero-padded)
            ana = nominal
        else:
            ideal = prev_ana + (syn - prev_syn)
            ana = _best_analysis_position(x, norms, nominal, ideal, frame, tol)
        chunk = x[ana : ana + frame]
        if len(chunk) < frame:
            chunk = np.pad(chunk, (0, frame - len(chunk)))
        acc[syn : syn + frame] += window * chunk
        norm[syn : syn + frame] += window
        prev_ana, prev_syn = ana, syn
    out = acc[:n_out] / np.maximum(norm[:n_out], 1e-12)
    return AudioClip(_clipped(out))


def pitch_shift(clip: AudioClip, semitones: int) -> AudioClip:
    """Shift pitch by a semitone count while keeping duration within 1%.

    Linear-interpolation resampling by 2^(semitones/12) scales frequencies,
    then the inverse time stretch restores the original duration.
    """
    if not -12 <= semitones <= 12:
        raise ValueError(f"semitones must be in [-12, 12], got {semitones}")
    if semitones == 0:
        return clip
    factor = 2.0 ** (semitones / 12.0)
    n = len(clip)
    n_res = max(1, round(n / factor))
    positions = np.arange(n_res) * factor
    resampled = np.interp(positions, np.arange(n), clip.samples)
    return time_stretch(AudioClip(resampled), rate=1.0 / factor)


def augment_clip(clip: AudioClip, spec: AugmentSpec, sample_seed: int) -> AudioClip:
    """One randomized pass: stretch, pitch, gain, then noise, all from one seed.

    Parameters are drawn up front in a fixed order so the result depends only
    on (clip, spec, sample_seed).
    """
    rng = np.random.default_rng(sample_seed)
    rate = float(rng.uniform(*STRETCH_RANGE))
    lo, hi = spec.pitch_range_semitones
    semitones = int(rng.integers(lo, hi + 1))
    gain_db = float(rng.uniform(*GAIN_RANGE_DB))
    sigma = float(rng.uniform(*NOISE_SIGMA_RANGE))
    noise_seed = int(rng.integers(0, 2**63 - 1))

    out = time_stretch(clip, rate)
    out = pitch_shift(out, semitones)
    out = apply_gain(out, gain_db)
    return add_gaussian_noise(out, sigma, noise_seed)


# ---------------------------------------------------------------------------
# dataset pipeline


@dataclass
class AugmentResult:
    manifest_path: Path
    n_augmented: int
    failures: list[tuple[str, str]] = field(default_factory=list)


def augment_dataset(
    manifest_in: str | Path,
    out_dir: str | Path,
    spec: AugmentSpec,
    languages: set[str] | None = None,
    splits: set[str] | None = None,
    multiplier: int = 1,
) -> AugmentResult:
    """Write augmented copies of the selected manifest entries under out_dir.

    Selection is by language and split (None means no filtering on that axis).
    The output manifest lists every original entry (paths re-relativized to
    out_dir) followed by the augmented entries. Each file's seed is derived
    from (spec.seed, entry id), so reruns are byte-identical regardless of order.
    Inputs ``read_wav`` cannot read or refuses are recorded as failures and
    skipped. An unreadable or malformed manifest, or one holding an id a copy
    would get (``<id>-aug<k>``), raises ``DataFormatError`` before ``out_dir`` is created.
    """
    if not _is_int(multiplier) or multiplier < 1:
        raise ValueError(f"multiplier must be a positive integer, got {multiplier!r}")
    manifest_in = Path(manifest_in)
    entries = read_manifest(manifest_in)
    selected = sorted(
        (e for e in entries if (languages is None or e.lang in languages) and (splits is None or e.split in splits)),
        key=lambda e: e.id,
    )
    new_ids = [[f"{e.id}-aug{copy}" for copy in range(1, multiplier + 1)] for e in selected]
    taken = {e.id for e in entries}.intersection(aug_id for ids in new_ids for aug_id in ids)
    if taken:
        raise DataFormatError(f"{manifest_in}: augmented id {min(taken)!r} is already the id of an entry")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # originals keep pointing at their source files, re-relativized to out_dir
    out_root = out_dir.resolve()
    out_entries = [replace(e, wav=os.path.relpath(resolve_wav(manifest_in, e), out_root)) for e in entries]

    failures = []
    augmented = []
    for e, ids in zip(selected, new_ids):
        try:
            clip = read_wav(resolve_wav(manifest_in, e))
        except (DataFormatError, OSError) as err:
            failures.append((e.id, str(err)))
            continue
        for aug_id in ids:
            out = augment_clip(clip, spec, derive_seed(spec.seed, aug_id))
            wav_rel = Path(e.split) / e.lang / f"{aug_id}.wav"
            write_wav(out_dir / wav_rel, out)
            augmented.append(
                ManifestEntry(id=aug_id, lang=e.lang, text=e.text, wav=str(wav_rel), split=e.split, augmented=True)
            )

    manifest_path = write_manifest(out_dir / "manifest.jsonl", out_entries + augmented)
    return AugmentResult(manifest_path=manifest_path, n_augmented=len(augmented), failures=failures)
