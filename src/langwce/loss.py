"""The language-weighted cross-entropy kernel the model trains on.

A batch is one [N x V] frame-logit matrix with N frame labels, cut into
consecutive utterance segments of ``sizes[j]`` frames each; there is no
padding. An utterance's loss is the mean over its frames of the negative
log-likelihood of the true label. The batch loss is the mean over utterances
of each utterance loss scaled by the weight of its language (unlisted
languages weigh 1), so with all weights at 1 it reduces to the plain batch
mean, and its gradient w.r.t. frame f of utterance j is

    w(lang_j) / (B * F_j) * (softmax(logits_f) - onehot(label_f)).

``model`` computes every loss and gradient through ``segment_nll`` and
``logit_gradient``. Everything here is double precision and
hand-differentiated; there is no autodiff framework underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class LanguageWeights:
    """Positive per-language loss weights; languages not listed default to 1."""

    weights: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for lang, w in self.weights.items():
            if not (np.isfinite(w) and w > 0):
                raise ValueError(f"weight for language {lang} must be positive and finite, got {w}")

    def get(self, language: int) -> float:
        return float(self.weights.get(language, 1.0))


@dataclass
class BatchLoss:
    """Unweighted per-sentence losses plus the weighted batch mean.

    ``applied_weight`` records the weight in force for the tracked (low-resource)
    language this step; 1.0 when no language is tracked.
    """

    per_sentence: list[float]
    per_language_avg: dict[int, float]
    weighted_mean: float
    applied_weight: float = 1.0


def segment_nll(logits: np.ndarray, labels: np.ndarray, sizes: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-utterance mean NLL and per-frame softmax probabilities.

    ``logits`` is [N x V], ``labels`` holds N ints in [0, V), and ``sizes``
    the frame count of each consecutive utterance segment, summing to N. The
    log-softmax subtracts each row's maximum first, so large logits cannot
    overflow. Returns (losses [B], probs [N x V]).
    """
    sizes = np.asarray(sizes)
    n_frames, n_classes = logits.shape
    if len(labels) != n_frames or sizes.sum() != n_frames or sizes.min() < 1:
        raise ValueError(f"{len(labels)} labels and segment sizes {sizes.tolist()} do not cut {n_frames} frames")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels out of range [0, {n_classes})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    probs = exp / denom
    nll = np.log(denom[:, 0]) - shifted[np.arange(n_frames), labels]
    bounds = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return np.add.reduceat(nll, bounds) / sizes, probs


def logit_gradient(
    probs: np.ndarray,
    labels: np.ndarray,
    sizes: Sequence[int] | np.ndarray,
    languages: Sequence[int],
    weights: LanguageWeights,
) -> np.ndarray:
    """Gradient of the weighted batch mean w.r.t. the frame logits.

    Row f of utterance j is w(lang_j) / (B * F_j) * (probs[f] - onehot(labels[f])),
    with ``probs`` as returned by ``segment_nll``, which is left unchanged.
    """
    sizes = np.asarray(sizes)
    grad = probs.copy()
    grad[np.arange(len(labels)), labels] -= 1.0
    scale = np.array([weights.get(k) for k in languages]) / (len(sizes) * sizes)
    grad *= np.repeat(scale, sizes)[:, None]
    return grad


def per_language_average(pairs: Iterable[tuple[int, float]]) -> dict[int, float]:
    """Arithmetic mean of losses grouped by language id."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for lang, value in pairs:
        sums[lang] = sums.get(lang, 0.0) + float(value)
        counts[lang] = counts.get(lang, 0) + 1
    if not sums:
        raise ValueError("no (language, loss) pairs given")
    return {lang: sums[lang] / counts[lang] for lang in sums}


def combine_sentence_losses(
    per_sentence: Sequence[float],
    languages: Sequence[int],
    weights: LanguageWeights,
    tracked_language: int | None = None,
) -> BatchLoss:
    """Assemble a BatchLoss from already-computed per-sentence losses.

    The weighted mean divides by the batch size, not the weight sum.
    """
    if len(per_sentence) == 0:
        raise ValueError("empty batch")
    if len(per_sentence) != len(languages):
        raise ValueError("per_sentence and languages length mismatch")
    weighted = sum(weights.get(k) * l for k, l in zip(languages, per_sentence))
    return BatchLoss(
        per_sentence=[float(l) for l in per_sentence],
        per_language_avg=per_language_average(zip(languages, per_sentence)),
        weighted_mean=float(weighted) / len(per_sentence),
        applied_weight=1.0 if tracked_language is None else weights.get(tracked_language),
    )
