"""Deterministic waveform augmentation for the low-resource language, and the corpus's one WAV format.

Four transforms: time stretch (windowed overlap-add), pitch shift (linear
resample plus inverse stretch), gain in dB, and additive Gaussian noise. Each
is a pure function of (clip, parameters, seed) and hard-clips its output, so
that it is again an ``AudioClip``.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .manifest import ManifestEntry, read_manifest, repeated_id, write_manifest
from .util import DataFormatError, derive_seed, is_int, read_file, require_ints, write_file

SAMPLE_RATE = 16000
WINDOW_SAMPLES = 400  # overlap-add analysis window, 25 ms
HOP_SAMPLES = 160  # analysis hop, 10 ms
SEARCH_SAMPLES = 160  # waveform-similarity search bound around the nominal analysis position, 10 ms
STRETCH_RANGE = (0.9, 1.1)
GAIN_RANGE_DB = (-6.0, 6.0)
NOISE_SIGMA_RANGE = (0.001, 0.01)


@dataclass(frozen=True)
class AudioClip:
    """Mono waveform at ``SAMPLE_RATE``; building one with no samples, or with one outside [-1, 1], raises ``ValueError``.

    This is the sample rule, so ``write_wav`` and the transforms take any clip as it is.
    """

    sample_rate: ClassVar[int] = SAMPLE_RATE  # not a field; the benchmark's tracer reads clip.sample_rate
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if len(samples) == 0:
            raise ValueError("no samples")
        # a NaN makes min() and max() NaN, which fails both comparisons
        if not (samples.min() >= -1.0 and samples.max() <= 1.0):
            i = int(np.flatnonzero(~(np.abs(samples) <= 1.0))[0])
            raise ValueError(f"sample {i} is {samples[i]}, not in [-1, 1]")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class AugmentSpec:
    """The semitone range and base seed of one augmentation pass; the other ranges are module constants."""

    pitch_range_semitones: tuple[int, int] = (-2, 2)
    seed: int = 0

    def __post_init__(self):
        # the bounds pitch_shift accepts, checked here so that a bad spec fails
        # before augment_dataset writes anything
        require_ints(self, "seed")
        pitch = self.pitch_range_semitones
        if not (isinstance(pitch, tuple) and len(pitch) == 2 and all(map(is_int, pitch))):
            raise ValueError(f"pitch_range_semitones must be a pair of ints, got {pitch!r}")
        if not -12 <= pitch[0] <= pitch[1] <= 12:
            raise ValueError(f"pitch_range_semitones: need -12 <= min <= max <= 12, got {pitch}")


# ---------------------------------------------------------------------------
# WAV I/O


_CHUNK = struct.Struct("<4sI")  # chunk id and size
_FMT = struct.Struct("<HHIIHH")  # format tag, channels, rate, byte rate, block align, bits
_HEADER = struct.Struct("<4sI4s" + "4sI" + "HHIIHH" + "4sI")  # RIFF, size, WAVE; fmt chunk; data chunk header


def read_wav(path: str | Path) -> AudioClip:
    """The samples of a 16-bit mono PCM WAV at ``SAMPLE_RATE``, each its 16-bit value / 2^15.

    Parsed with ``struct``, not ``wave``, so that what it accepts does not
    depend on the Python version. After ``RIFF``, its size (not checked) and
    ``WAVE``, the chunks are walked up to the first ``data`` chunk, skipping any
    but ``fmt `` and the pad byte after an odd size. ``fmt `` must hold at least
    16 bytes: format tag 1 (WAVE_FORMAT_EXTENSIBLE, 0xFFFE, is refused), one
    channel, ``SAMPLE_RATE``, any byte rate and block align, and 16 bits.
    Raises ``DataFormatError`` naming the file for any other header, a header
    cut short, ``data`` before ``fmt ``, a data chunk shorter than its header
    declares, or no samples.
    """
    raw = read_file(path, "WAV file", text=False)
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise DataFormatError(f"{path}: not a RIFF/WAVE file")
    pos, fmt = 12, None
    while True:
        if pos + _CHUNK.size > len(raw):
            raise DataFormatError(f"{path}: truncated WAV header")
        name, size = _CHUNK.unpack_from(raw, pos)
        pos += _CHUNK.size
        if name == b"data":
            break
        if name == b"fmt ":
            if size < _FMT.size or pos + _FMT.size > len(raw):
                raise DataFormatError(f"{path}: truncated WAV header")
            fmt = _FMT.unpack_from(raw, pos)
        pos += size + size % 2
    if fmt is None:
        raise DataFormatError(f"{path}: data chunk before fmt chunk")
    tag, channels, rate, _, _, bits = fmt
    if tag != 1:
        raise DataFormatError(f"{path}: format tag {tag:#06x}, need PCM (0x0001)")
    if channels != 1:
        raise DataFormatError(f"{path}: {channels} channels, need mono")
    if bits != 16:
        raise DataFormatError(f"{path}: {bits}-bit samples, need 16-bit")
    if rate != SAMPLE_RATE:
        raise DataFormatError(f"{path}: sampled at {rate} Hz, need {SAMPLE_RATE} Hz")
    n = size // 2  # an odd last byte holds no sample
    if len(raw) - pos < 2 * n:
        raise DataFormatError(f"{path}: data chunk holds {len(raw) - pos} of the {2 * n} bytes its header declares")
    if n == 0:
        raise DataFormatError(f"{path}: no samples")
    return AudioClip(np.frombuffer(raw, dtype="<i2", count=n, offset=pos) / 32768.0)


def write_wav(path: str | Path, clip: AudioClip) -> None:
    """Write ``clip`` quantized to 16 bits: each sample to the nearest multiple of 2^-15, ties to even.

    A sample that rounds to 1.0 is written as the largest value, 1 - 2^-15.
    The file is a 44-byte header and the samples, the bytes ``wave`` writes:
    ``RIFF``, 36 + the data size, ``WAVE``, a 16-byte ``fmt `` chunk (tag 1, one
    channel, ``SAMPLE_RATE``, byte rate 2 * ``SAMPLE_RATE``, block align 2, 16
    bits), then ``data`` and the data size.
    """
    data = np.clip(np.rint(clip.samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
    header = _HEADER.pack(
        b"RIFF", 36 + len(data), b"WAVE", b"fmt ", _FMT.size, 1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16, b"data", len(data)
    )
    write_file(path, header + data)


# ---------------------------------------------------------------------------
# transforms


def _clipped(samples: np.ndarray) -> np.ndarray:
    return np.clip(samples, -1.0, 1.0)


def apply_gain(clip: AudioClip, gain_db: float) -> AudioClip:
    """Scale by 10^(gain_db/20), hard-clipping at the write bound."""
    if not math.isfinite(gain_db):
        raise ValueError(f"gain must be finite, got {gain_db}")
    try:
        factor = 10.0 ** (gain_db / 20.0)
    except OverflowError:
        raise ValueError(f"gain must give a finite factor 10^(gain/20), got {gain_db}") from None
    return AudioClip(_clipped(clip.samples * factor))


def add_gaussian_noise(clip: AudioClip, sigma: float, seed: int) -> AudioClip:
    """Add i.i.d. Normal(0, sigma^2) noise from a seeded generator."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
    noise = np.random.default_rng(seed).normal(0.0, sigma, size=len(clip))
    return AudioClip(_clipped(clip.samples + noise))


def _hann(length: int) -> np.ndarray:
    """The overlap-add window (read-only), evaluated at bin centers.

    At bin centers the window never reaches zero, so the overlap-add
    normalization stays well-conditioned at clip edges.
    """
    m = np.arange(length)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * (m + 0.5) / length)
    window.setflags(write=False)
    return window


_WINDOW = _hann(WINDOW_SAMPLES)


def _window_sums(y: np.ndarray, frame: int) -> np.ndarray:
    """The sum of ``y[s : s + frame]`` for every start ``s``, equal bit for bit to NumPy's row sums.

    NumPy adds each row's pairwise sum to 0.0. A row shorter than 8 is summed
    in order. A row of 8 to 128 values is a leaf: accumulator j sums values j,
    j + 8, ... in order, the eight are added as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, and the last
    ``L % 8`` values follow one at a time. A longer row is split at ``L // 2``
    rounded down to a multiple of 8, and the sums of its halves are added.

    No step depends on the start, so each runs once for all starts, as a
    vector operation on shifted slices: one strided pass
    ``r[t] = y[t] + y[t + 8] + ...`` gives every accumulator of every leaf of
    one length, three shifted adds give their tree, and each length in the
    split is summed once for every place it occurs. A 400-sample frame (leaves
    of 96 and 104) takes about 30 vector operations, where NumPy reduces one
    row per start. ``tests/test_audio.py`` checks the order against NumPy.
    """
    return _sums_of_length(y, frame, {})


def _sums_of_length(y: np.ndarray, length: int, sums: dict[int, np.ndarray]) -> np.ndarray:
    """``_window_sums(y, length)``, kept in ``sums`` by length so that each length is summed once."""
    if length not in sums:
        m = len(y) - length + 1
        if length < 8:
            total = np.zeros(m)
            for i in range(length):
                total += y[i : i + m]
        elif length <= 128:
            blocks = length // 8
            span = len(y) - 8 * (blocks - 1)
            r = y[:span] + 0.0  # NumPy's 0.0, added to a term: it turns only an all -0.0 sum into +0.0
            for b in range(1, blocks):
                r += y[8 * b : 8 * b + span]
            pairs = r[:-1] + r[1:]
            quads = pairs[:-2] + pairs[2:]
            total = quads[:m] + quads[4 : m + 4]
            for i in range(8 * blocks, length):
                total += y[i : i + m]
        else:
            half = length // 2 - length // 2 % 8
            total = _sums_of_length(y, half, sums)[:m] + _sums_of_length(y, length - half, sums)[half : half + m]
        sums[length] = total
    return sums[length]


def _best_analysis_position(
    x: np.ndarray, denoms: np.ndarray, nominal: int, ideal: int, cmp_len: int, tol: int
) -> int:
    """Analysis start near ``nominal`` whose waveform best continues the previous frame.

    Scores candidates by normalized cross-correlation against the ideal
    continuation segment; ties resolve toward the nominal position so timing
    stays faithful and the search is deterministic. A candidate ties with the
    best when its score falls short of the best score s by at most
    1e-9 * max(1, |s|); the nearest-to-nominal rule runs only when more than
    one candidate ties.

    ``denoms[i]`` must be the Euclidean norm of ``x[i : i + cmp_len]`` plus
    1e-12, its sum of squares equal bit for bit to NumPy's (``_window_sums``),
    for every start ``i`` in ``[0, len(x) - cmp_len]``, which must not be
    empty. ``x`` holds an ``AudioClip``'s samples, so every norm and score is
    finite.
    """
    n = len(x)
    anchor = max(0, min(nominal, n - cmp_len))
    lo = max(0, anchor - tol)
    hi = min(n - cmp_len, anchor + tol)
    template = x[max(0, min(ideal, n - cmp_len)) :][:cmp_len]
    scores = np.correlate(x[lo : hi + cmp_len], template, "valid")
    scores /= denoms[lo : hi + 1]
    pick = scores.argmax()
    best = scores.item(pick)
    good = (scores >= best - 1e-9 * max(1.0, abs(best))).nonzero()[0]
    if len(good) > 1:
        pick = good[np.abs(good + (lo - nominal)).argmin()]
    return lo + int(pick)


def _overlap_add(x: np.ndarray, analysis: np.ndarray, synthesis: np.ndarray, n_out: int) -> np.ndarray:
    """The first ``n_out`` samples of the Hann-windowed frames of ``x`` added at their synthesis starts, normalized.

    Frame k is ``x[analysis[k] : analysis[k] + WINDOW_SAMPLES]``, zero-padded
    where it runs past the clip, and lands at ``synthesis[k]``. Each output
    sample is the sum of its windowed samples over the sum of its window
    values (at least 1e-12). One ``np.bincount`` over the frame-major sample
    index adds each sum in frame order, from 0.0, as a ``+=`` per frame would,
    so the result is the same bit for bit.
    """
    frame = WINDOW_SAMPLES
    frames = sliding_window_view(np.concatenate([x, np.zeros(frame)]), frame)[analysis]
    frames *= _WINDOW
    index = (synthesis[:, None] + np.arange(frame)).ravel()
    acc = np.bincount(index, frames.ravel(), minlength=n_out)[:n_out]
    norm = np.bincount(index, np.tile(_WINDOW, len(synthesis)), minlength=n_out)[:n_out]
    acc /= np.maximum(norm, 1e-12)
    return acc


def time_stretch(clip: AudioClip, rate: float) -> AudioClip:
    """Change duration to round(len / rate) samples, preserving pitch.

    Windowed overlap-add: analysis frames taken at a fixed hop are re-spaced
    to a synthesis hop of (analysis hop / rate) and blended under a Hann
    window, with the accumulated window sum normalizing each output sample.
    Re-spacing alone would scramble the phase of periodic content, so each
    analysis position is refined by a bounded waveform-similarity search
    against the continuation of the previously placed frame. The positions
    are searched one frame at a time, since each search starts from the frame
    before; then ``_overlap_add`` adds every frame in one pass.

    The search's denominators come from ``_window_sums`` once per call, not
    from running sums, whose cancellation misstates near-silent windows.
    """
    if not 0.5 <= rate <= 2.0:
        raise ValueError(f"stretch rate must be in [0.5, 2.0], got {rate}")
    n = len(clip)
    frame, hop, tol = WINDOW_SAMPLES, HOP_SAMPLES, SEARCH_SAMPLES
    syn_hop = hop / rate
    n_out = max(1, round(n / rate))
    n_frames = max(1, math.ceil(max(0, n_out - frame) / syn_hop) + 1)

    x = clip.samples
    # a clip shorter than one frame is never searched (every frame is a tail frame)
    denoms = np.sqrt(_window_sums(x * x, frame)) + 1e-12 if n >= frame else None
    analysis = []
    synthesis = []
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
            ana = _best_analysis_position(x, denoms, nominal, ideal, frame, tol)
        analysis.append(ana)
        synthesis.append(syn)
        prev_ana, prev_syn = ana, syn
    return AudioClip(_clipped(_overlap_add(x, np.array(analysis), np.array(synthesis), n_out)))


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
    The output manifest, ``out_dir / "manifest.jsonl"``, lists every original
    entry followed by the augmented entries. An original's path is the
    relative path from the resolved ``out_dir`` to the resolved directory of
    ``manifest_in``, joined to its path there, and each selected input is
    read from that resolved directory. The two directories are resolved once
    per call and the entries' own paths never, so a path that runs through a
    symbolic link still runs through it.
    Each file's seed is derived from (spec.seed, entry id), so reruns are
    byte-identical regardless of order. Inputs ``read_wav`` refuses are
    recorded as failures and skipped. A manifest ``read_manifest`` refuses, or
    one holding an id a copy would get (``<id>-aug<k>``), raises
    ``DataFormatError`` before anything is written.
    """
    if not is_int(multiplier) or multiplier < 1:
        raise ValueError(f"multiplier must be a positive int, got {multiplier!r}")
    manifest_in = Path(manifest_in)
    entries = read_manifest(manifest_in)
    selected = sorted(
        (e for e in entries if (languages is None or e.lang in languages) and (splits is None or e.split in splits)),
        key=lambda e: e.id,
    )
    new_ids = [[f"{e.id}-aug{copy}" for copy in range(1, multiplier + 1)] for e in selected]
    # the entries' ids differ, and so do the new ones, so a repeat is a new id that an entry already has
    repeat = repeated_id([*(e.id for e in entries), *(aug_id for ids in new_ids for aug_id in ids)])
    if repeat:
        raise DataFormatError(f"{manifest_in}: augmented id {repeat[0]!r} is already the id of an entry")
    out_dir = Path(out_dir)

    # originals keep pointing at their source files, re-relativized to out_dir
    src_root = manifest_in.parent.resolve()
    to_src = os.path.relpath(src_root, out_dir.resolve())
    out_entries = [replace(e, wav=os.path.join(to_src, e.wav)) for e in entries]

    failures = []
    augmented = []
    for e, ids in zip(selected, new_ids):
        try:
            clip = read_wav(src_root / e.wav)
        except DataFormatError as err:
            failures.append((e.id, str(err)))
            continue
        for aug_id in ids:
            out = augment_clip(clip, spec, derive_seed(spec.seed, aug_id))
            wav_rel = Path(e.split) / e.lang / f"{aug_id}.wav"
            write_wav(out_dir / wav_rel, out)
            augmented.append(
                ManifestEntry(id=aug_id, lang=e.lang, text=e.text, wav=str(wav_rel), split=e.split, augmented=True)
            )

    write_manifest(out_dir / "manifest.jsonl", out_entries + augmented)
    return AugmentResult(n_augmented=len(augmented), failures=failures)
