"""Shared test utilities: tone synthesis and the oracles the tests measure against.

Each package function has at most one oracle: a test that needs a reference
implementation of a function uses the one here, if there is one, rather than
writing a second.

The oracles measure independently of the package: dominant frequency comes
from a plain FFT and bin energy from a per-sample Goertzel recurrence, not
from the package's own DSP. The exceptions are the bit-for-bit references,
each the package's first form of a function that a faster form must
reproduce exactly.
"""

import io
import wave
from pathlib import Path

import numpy as np

from langwce import loss as loss_mod
from langwce.audio import SAMPLE_RATE, AudioClip
from langwce.synthlang import FRAME_SAMPLES, FREQ_GRID, SYMBOL_SAMPLES, SYMBOLS


def same_bits(a, b):
    """Whether two arrays have equal dtype, shape and bytes: -0.0 differs from 0.0, and equal NaN bits match."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def make_tone(freq, seconds=1.0, amplitude=0.5, ramp_ms=5.0):
    n = round(seconds * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    x = amplitude * np.sin(2 * np.pi * freq * t)
    ramp = round(ramp_ms / 1000 * SAMPLE_RATE)
    if ramp and 2 * ramp < n:
        env = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
        x[:ramp] *= env
        x[-ramp:] *= env[::-1]
    return AudioClip(x)


def wave_bytes(ints, rate=SAMPLE_RATE):
    """The 16-bit mono PCM WAV file that ``wave`` writes for the sample values ``ints`` at ``rate``: ``audio.write_wav``'s bytes."""
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(np.asarray(ints, dtype="<i2").tobytes())
    return buf.getvalue()


def write_wav_at_rate(path, rate, samples):
    """A 16-bit mono PCM WAV of ``samples`` (floats in [-1, 1]) at any rate, written with ``wave`` alone."""
    Path(path).write_bytes(wave_bytes(np.rint(np.asarray(samples) * 32767), rate))


def dominant_frequency(clip, fmin=50.0):
    """Peak of the FFT magnitude over the interior of the clip."""
    x = clip.samples
    margin = len(x) // 8
    seg = x[margin : len(x) - margin] if len(x) > 16 * 2 else x
    seg = seg * np.hanning(len(seg))
    spectrum = np.abs(np.fft.rfft(seg))
    freqs = np.fft.rfftfreq(len(seg), 1.0 / SAMPLE_RATE)
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


def oracle_synthesize(spec, text):
    """``synthesize_utterance``'s samples, each symbol's ramped 0.3-amplitude tone computed on its own."""
    ramp = round(0.005 * SAMPLE_RATE)
    env = np.ones(SYMBOL_SAMPLES)
    edge = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    env[:ramp] = edge
    env[-ramp:] = edge[::-1]
    t = np.arange(SYMBOL_SAMPLES) / SAMPLE_RATE
    return np.concatenate([0.3 * np.sin(2 * np.pi * spec.freq_map[SYMBOLS.index(s)] * t) * env for s in text])


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


def oracle_overlap_add(x, analysis, synthesis, n_out, window):
    """``audio._overlap_add``: each windowed frame, zero-padded past the clip, added by ``+=`` in frame order."""
    frame = len(window)
    acc = np.zeros(max(n_out, max(synthesis) + frame))
    norm = np.zeros_like(acc)
    for ana, syn in zip(analysis, synthesis):
        chunk = x[ana : ana + frame]
        if len(chunk) < frame:
            chunk = np.pad(chunk, (0, frame - len(chunk)))
        acc[syn : syn + frame] += window * chunk
        norm[syn : syn + frame] += window
    return acc[:n_out] / np.maximum(norm[:n_out], 1e-12)


def resolve_wav(manifest_path, entry):
    """The absolute path, links resolved, of the file ``entry`` of the manifest at ``manifest_path`` names."""
    return (Path(manifest_path).parent / entry.wav).resolve()


def oracle_window_sums(y, frame):
    """The sum of ``y[s : s + frame]`` for every start ``s``, one NumPy row sum per window."""
    return np.lib.stride_tricks.sliding_window_view(y, frame).sum(axis=1)


def oracle_featurize(clip, normalize=True):
    """``featurize``'s values, with the cosine and sine basis built inline for this clip.

    With ``normalize=False`` these are the raw ln(1 + E) energies, which the
    filterbank tests read.
    """
    n_frames = len(clip) // FRAME_SAMPLES
    frames = clip.samples[: n_frames * FRAME_SAMPLES].reshape(n_frames, FRAME_SAMPLES)
    n = np.arange(FRAME_SAMPLES)[:, None]
    omega = 2.0 * np.pi * np.asarray(FREQ_GRID)[None, :] / SAMPLE_RATE
    values = np.log1p((frames @ np.cos(n * omega)) ** 2 + (frames @ np.sin(n * omega)) ** 2)
    if normalize:
        std = values.std(axis=0)
        values = (values - values.mean(axis=0)) / np.where(std > 1e-12, std, 1.0)
    return values


def oracle_edit_distance(ref, hyp):
    """``metrics.edit_distance`` from the full table, each cell the ``min`` of its three moves."""
    n, m = len(ref), len(hyp)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        ri = ref[i - 1]
        row, prev = dist[i], dist[i - 1]
        for j in range(1, m + 1):
            row[j] = min(
                prev[j - 1] + (ri != hyp[j - 1]),
                row[j - 1] + 1,
                prev[j] + 1,
            )
    return dist[n][m]


def oracle_segment_nll(logits, labels, sizes):
    """``loss.segment_nll`` with a row-wise max and a fresh array per step."""
    sizes = np.asarray(sizes)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    probs = exp / denom
    nll = np.log(denom[:, 0]) - shifted[np.arange(len(labels)), labels]
    bounds = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return np.add.reduceat(nll, bounds) / sizes, probs


def oracle_layers(model, x):
    """``model._layers``: hidden activations and frame logits, each one expression."""
    hidden = np.tanh(x @ model.W1 + model.b1)
    return hidden, hidden @ model.W2 + model.b2


def oracle_sgd_update(model, x, labels, sizes, utt_weights, learning_rate):
    """The parameters one ``train_step`` on these inputs and weights leaves, keyed by name."""
    hidden, logits = oracle_layers(model, x)
    _, probs = oracle_segment_nll(logits, labels, sizes)
    dlogits = loss_mod.logit_gradient(probs, labels, sizes, utt_weights)
    d_z = (dlogits @ model.W2.T) * (1.0 - hidden**2)
    grads = {"W1": x.T @ d_z, "b1": d_z.sum(axis=0), "W2": hidden.T @ dlogits, "b2": dlogits.sum(axis=0)}
    return {name: getattr(model, name) - learning_rate * grad for name, grad in grads.items()}


def oracle_inputs(config, features, languages):
    """``model.build_inputs``' rows, built frame by frame: each window position clamped to its utterance, then the one-hot."""
    rows = []
    for feats, lang in zip(features, languages):
        last = len(feats) - 1
        for f in range(len(feats)):
            row = []
            for offset in range(-config.context, config.context + 1):
                row.extend(feats[min(max(f + offset, 0), last)])
            row.extend(1.0 if i == lang else 0.0 for i in range(config.n_langs))
            rows.append(row)
    return np.array(rows)


def oracle_vote(logits, n_symbols, frames_per_symbol):
    """``model.decode``'s transcription of frame logits, counted in a [blocks x frames x symbols] cube."""
    blocks = logits.argmax(axis=1).reshape(-1, frames_per_symbol)
    votes = (blocks[:, :, None] == np.arange(n_symbols)).sum(axis=1)
    return "".join(SYMBOLS[i] for i in votes.argmax(axis=1))
