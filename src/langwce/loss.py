"""The language-weighted cross-entropy kernel the model trains on.

A batch is one [N x V] frame-logit matrix with N frame labels, cut into
consecutive utterance segments of ``sizes[j]`` frames each; there is no
padding. An utterance's loss is the mean over its frames of the negative
log-likelihood of the true label. The batch loss is the mean over utterances
of each utterance loss scaled by its weight ``utt_weights[j]``, so with all
weights at 1 it reduces to the plain batch mean. Everything here is double
precision and hand-differentiated; there is no autodiff framework underneath.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def segment_nll(logits: np.ndarray, labels: np.ndarray, sizes: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-utterance mean NLL and per-frame softmax probabilities.

    ``logits`` is [N x V], ``labels`` holds N ints in [0, V), and ``sizes``
    the frame count of each consecutive utterance segment, summing to N. The
    log-softmax subtracts each row's maximum first, so large logits cannot
    overflow. Returns (losses [B], probs [N x V]), ``probs`` a fresh array.
    """
    sizes = np.asarray(sizes)
    n_frames, n_classes = logits.shape
    if len(labels) != n_frames or sizes.sum() != n_frames or sizes.min() < 1:
        raise ValueError(f"{len(labels)} labels and segment sizes {sizes.tolist()} do not cut {n_frames} frames")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels out of range [0, {n_classes})")
    # max(axis=1) reduces each short row on its own; a sweep over columns is faster
    row_max = logits[:, 0].copy()
    for k in range(1, n_classes):
        np.maximum(row_max, logits[:, k], out=row_max)
    shifted = logits - row_max[:, None]
    picked = shifted[np.arange(n_frames), labels]
    probs = np.exp(shifted, out=shifted)
    denom = probs.sum(axis=1, keepdims=True)
    probs /= denom
    nll = np.log(denom[:, 0]) - picked
    bounds = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return np.add.reduceat(nll, bounds) / sizes, probs


def logit_gradient(
    probs: np.ndarray,
    labels: np.ndarray,
    sizes: Sequence[int] | np.ndarray,
    utt_weights: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Gradient of the weighted batch mean w.r.t. the frame logits.

    Row f of utterance j is utt_weights[j] / (B * F_j) * (probs[f] - onehot(labels[f])),
    with ``probs`` as returned by ``segment_nll``, which is left unchanged.
    """
    sizes = np.asarray(sizes)
    grad = probs.copy()
    grad[np.arange(len(labels)), labels] -= 1.0
    scale = np.asarray(utt_weights) / (len(sizes) * sizes)
    grad *= np.repeat(scale, sizes)[:, None]
    return grad


def group_means(losses: np.ndarray, groups: Sequence | np.ndarray) -> dict:
    """``{g: losses[groups == g].mean()}`` for each distinct group ``g``, in ascending order."""
    groups = np.asarray(groups)
    if len(losses) != len(groups) or len(losses) == 0:
        raise ValueError(f"need one group label per loss, at least one of each; got {len(losses)} and {len(groups)}")
    means = {}
    # sorting a set of the few labels is cheaper than np.unique on a batch this short
    for g in sorted(set(groups.tolist())):
        sel = losses[groups == g]
        # ndarray.mean's own sum and division, without its dispatch
        means[g] = float(sel.sum() / len(sel))
    return means


def combine_sentence_losses(per_sentence: Sequence[float], utt_weights: Sequence[float] | np.ndarray) -> float:
    """Weighted batch mean of already-computed per-sentence losses; it divides by the batch size, not the weight sum."""
    if len(per_sentence) == 0:
        raise ValueError("empty batch")
    if len(per_sentence) != len(utt_weights):
        raise ValueError("per_sentence and utt_weights length mismatch")
    weighted = sum(w * l for w, l in zip(utt_weights, per_sentence))
    return float(weighted) / len(per_sentence)
