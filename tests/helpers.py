"""Shared test utilities: tone synthesis and spectrum analysis oracles.

The analysis here deliberately avoids the package's own DSP: dominant
frequency comes from a plain FFT and bin energy from a per-sample Goertzel
recurrence, so transform and featurization tests check against independent
measurements. The two exceptions are references that a faster form in the
package must reproduce bit for bit: ``oracle_best_analysis_position``, the
waveform-similarity search of ``audio.time_stretch`` in its first,
per-candidate form, and ``oracle_featurize``, ``synthlang.featurize`` with
its filterbank basis built inline on every call.
"""

import numpy as np

from langwce.audio import AudioClip
from langwce.synthlang import FRAME_SAMPLES, FREQ_GRID


def make_tone(freq, seconds=1.0, sample_rate=16000, amplitude=0.5, ramp_ms=5.0):
    n = round(seconds * sample_rate)
    t = np.arange(n) / sample_rate
    x = amplitude * np.sin(2 * np.pi * freq * t)
    ramp = round(ramp_ms / 1000 * sample_rate)
    if ramp and 2 * ramp < n:
        env = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
        x[:ramp] *= env
        x[-ramp:] *= env[::-1]
    return AudioClip(sample_rate=sample_rate, samples=x)


def dominant_frequency(clip, fmin=50.0):
    """Peak of the FFT magnitude over the interior of the clip."""
    x = clip.samples
    margin = len(x) // 8
    seg = x[margin : len(x) - margin] if len(x) > 16 * 2 else x
    seg = seg * np.hanning(len(seg))
    spectrum = np.abs(np.fft.rfft(seg))
    freqs = np.fft.rfftfreq(len(seg), 1.0 / clip.sample_rate)
    keep = freqs >= fmin
    return float(freqs[keep][np.argmax(spectrum[keep])])


def goertzel_power(samples, freq, sample_rate):
    """Spectral energy |X(freq)|^2 via the Goertzel recurrence, one sample at a time."""
    omega = 2.0 * np.pi * freq / sample_rate
    coeff = 2.0 * np.cos(omega)
    s1 = s2 = 0.0
    for x in np.asarray(samples, dtype=np.float64):
        s0 = x + coeff * s1 - s2
        s2 = s1
        s1 = s0
    return float(s1 * s1 + s2 * s2 - coeff * s1 * s2)


def oracle_best_analysis_position(x, nominal, ideal, cmp_len, tol):
    """The time-stretch search with every candidate window's norm recomputed on each call."""
    n = len(x)
    if n < cmp_len or tol <= 0:
        return max(0, min(nominal, n - 1))
    anchor = max(0, min(nominal, n - cmp_len))
    lo = max(0, anchor - tol)
    hi = min(n - cmp_len, anchor + tol)
    template = x[max(0, min(ideal, n - cmp_len)) :][:cmp_len]
    candidates = np.lib.stride_tricks.sliding_window_view(x, cmp_len)[lo : hi + 1]
    scores = candidates @ template / (np.sqrt((candidates**2).sum(axis=1)) + 1e-12)
    best = scores.max()
    good = np.nonzero(scores >= best - 1e-9 * max(1.0, abs(best)))[0]
    return int(lo + good[np.argmin(np.abs(good + lo - nominal))])


def oracle_featurize(clip, normalize=True):
    """``featurize``'s values, with the cosine and sine basis built inline for this clip."""
    n_frames = len(clip) // FRAME_SAMPLES
    frames = clip.samples[: n_frames * FRAME_SAMPLES].reshape(n_frames, FRAME_SAMPLES)
    n = np.arange(FRAME_SAMPLES)[:, None]
    omega = 2.0 * np.pi * np.asarray(FREQ_GRID)[None, :] / clip.sample_rate
    values = np.log1p((frames @ np.cos(n * omega)) ** 2 + (frames @ np.sin(n * omega)) ** 2)
    if normalize:
        std = values.std(axis=0)
        values = (values - values.mean(axis=0)) / np.where(std > 1e-12, std, 1.0)
    return values
