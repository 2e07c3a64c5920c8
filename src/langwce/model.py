"""Language-conditioned frame classifier with hand-derived backpropagation.

The model is a two-layer tanh MLP over a context window of filterbank frames
concatenated with a one-hot language vector:

    logits = W2' * tanh(W1' * input + b1) + b2

Training is plain SGD on the language-weighted batch loss. The loss and its
gradient w.r.t. the logits come from ``loss.segment_nll`` and
``loss.logit_gradient``; the rest of the backward pass through the tanh layer
is derived by hand here, and the test suite pins it against central finite
differences. Everything runs in double precision, single-threaded, and is
deterministic given the seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import loss as loss_mod
from .loss import BatchLoss
from .schedule import WeightMode, Weighting
from .synthlang import FrameExample, LanguageSpec, load_corpus_meta, load_examples
from .util import DataFormatError, DivergenceError, derive_seed

CHECKPOINT_VERSION = 1
FRAMES_PER_SYMBOL = 10  # clean synthesis geometry: 100 ms symbols, 10 ms frames
# Divergence bound on a batch's unweighted mean utterance loss, in units of
# ln(n_symbols), the loss of a uniform guess; 100 * ln 8 is about 208. On the
# benchmark's paper-grid corpus (1,000 pretrain steps, then constant and
# dynamic LWCE fine-tunes) the largest batch mean was 2.4 at the default
# learning rate of 0.1 and 36 at 10; at 100 it reached 568, which trips it.
LOSS_EXPLOSION_FACTOR = 100.0


@dataclass(frozen=True)
class ModelConfig:
    n_features: int = 8
    context: int = 2  # frames of context on each side
    hidden: int = 64
    n_symbols: int = 8
    n_langs: int = 6

    def __post_init__(self):
        if min(self.n_features, self.hidden, self.n_symbols, self.n_langs) < 1 or self.context < 0:
            raise ValueError(f"invalid model dimensions: {self}")

    @property
    def d_in(self) -> int:
        return self.n_features * (2 * self.context + 1) + self.n_langs


@dataclass
class AcousticModel:
    config: ModelConfig
    W1: np.ndarray  # [d_in x hidden]
    b1: np.ndarray  # [hidden]
    W2: np.ndarray  # [hidden x n_symbols]
    b2: np.ndarray  # [n_symbols]

    def __post_init__(self):
        c = self.config
        shapes = {
            "W1": (c.d_in, c.hidden),
            "b1": (c.hidden,),
            "W2": (c.hidden, c.n_symbols),
            "b2": (c.n_symbols,),
        }
        for name, shape in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
            if arr.shape != shape:
                raise DataFormatError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")

    def parameters(self) -> dict[str, np.ndarray]:
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int = 8000
    batch_size: int = 16
    eval_every: int = 1000
    learning_rate: float = 0.1
    weighting: Weighting = field(default_factory=Weighting)
    seed: int = 0

    def __post_init__(self):
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.total_steps < self.eval_every:
            raise ValueError("total_steps must be >= eval_every")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 so a batch can mix languages")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        w = self.weighting
        if w.mode is WeightMode.LINEAR and w.linear.t_total < self.total_steps:
            raise ValueError(
                f"the linear schedule ends at t_total={w.linear.t_total}, before total_steps={self.total_steps}"
            )


def init_model(config: ModelConfig, seed: int) -> AcousticModel:
    """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    a1 = math.sqrt(6.0 / (config.d_in + config.hidden))
    a2 = math.sqrt(6.0 / (config.hidden + config.n_symbols))
    return AcousticModel(
        config=config,
        W1=rng.uniform(-a1, a1, size=(config.d_in, config.hidden)),
        b1=np.zeros(config.hidden),
        W2=rng.uniform(-a2, a2, size=(config.hidden, config.n_symbols)),
        b2=np.zeros(config.n_symbols),
    )


def build_inputs(config: ModelConfig, features: np.ndarray, language: int) -> np.ndarray:
    """Per-frame input: (2C+1)-frame context window plus language one-hot.

    Edge frames replicate the boundary frame.
    """
    if not 0 <= language < config.n_langs:
        raise ValueError(f"unknown language id {language}; model has {config.n_langs} languages")
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != config.n_features or feats.shape[0] < 1:
        raise ValueError(f"features must be [frames x {config.n_features}], got {feats.shape}")
    n_frames = feats.shape[0]
    c = config.context
    x = np.zeros((n_frames, config.d_in))
    if c:
        padded = np.pad(feats, ((c, c), (0, 0)), mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, n_frames, axis=0)
        # windows: [2c+1, n_features, n_frames] -> [n_frames, (2c+1)*n_features]
        x[:, : config.n_features * (2 * c + 1)] = windows.transpose(2, 0, 1).reshape(n_frames, -1)
    else:
        x[:, : config.n_features] = feats
    x[:, config.n_features * (2 * c + 1) + language] = 1.0
    return x


def forward(model: AcousticModel, features: np.ndarray, language: int) -> np.ndarray:
    """Frame logits [frames x n_symbols]."""
    x = build_inputs(model.config, features, language)
    hidden = np.tanh(x @ model.W1 + model.b1)
    return hidden @ model.W2 + model.b2


def train_step(
    model: AcousticModel,
    batch: list[FrameExample],
    t: int,
    config: TrainConfig,
    low_lang: int,
) -> BatchLoss:
    """One SGD step on a batch of utterances; updates the model in place.

    When the batch contains the low-resource language the scheduler is
    consulted for the step weight (the dynamic scheduler sees this batch's
    unweighted language averages, treated as constants), and each
    low-resource utterance's loss is scaled by it; otherwise weighting is a
    no-op and the recorded applied weight is 1.

    Raises ``DivergenceError`` on a non-finite loss, on an unweighted mean
    utterance loss above ``LOSS_EXPLOSION_FACTOR * ln(n_symbols)``, or when the
    update would leave a non-finite parameter. The losses are checked before
    the scheduler sees them. In every case the model is left as it was before
    the failing step.
    """
    if not batch:
        raise ValueError("empty batch")
    xs = [build_inputs(model.config, ex.features, ex.lang) for ex in batch]
    sizes = np.array([len(x) for x in xs])
    x_all = np.concatenate(xs, axis=0)
    labels = np.concatenate([ex.labels for ex in batch])
    hidden = np.tanh(x_all @ model.W1 + model.b1)
    per_sentence, probs = loss_mod.segment_nll(hidden @ model.W2 + model.b2, labels, sizes)

    mean_loss = float(per_sentence.mean())
    if not math.isfinite(mean_loss):
        raise DivergenceError(f"step {t}: non-finite loss: unweighted mean utterance loss {mean_loss} (must be finite)")
    n_symbols = model.config.n_symbols
    bound = LOSS_EXPLOSION_FACTOR * math.log(n_symbols)
    if mean_loss > bound:
        raise DivergenceError(
            f"step {t}: loss explosion: unweighted mean utterance loss {mean_loss:.6g} exceeds "
            f"the bound {bound:.6g} = {LOSS_EXPLOSION_FACTOR:g} * ln({n_symbols})"
        )

    is_low = np.array([ex.lang == low_lang for ex in batch])
    utt_weights = np.ones(len(batch))
    applied_weight = 1.0
    if is_low.any():
        high_losses = per_sentence[~is_low]
        avg_high = float(high_losses.mean()) if len(high_losses) else 0.0
        decision = config.weighting.decide(t, avg_low=float(per_sentence[is_low].mean()), avg_high=avg_high)
        applied_weight = float(decision.value)
        utt_weights[is_low] = applied_weight

    losses = per_sentence.tolist()
    weighted_mean = loss_mod.combine_sentence_losses(losses, utt_weights)
    if not math.isfinite(weighted_mean):
        raise DivergenceError(f"step {t}: non-finite loss: weighted batch loss {weighted_mean} (must be finite)")

    dlogits = loss_mod.logit_gradient(probs, labels, sizes, utt_weights)
    d_z = (dlogits @ model.W2.T) * (1.0 - hidden**2)
    grads = {"W1": x_all.T @ d_z, "b1": d_z.sum(axis=0), "W2": hidden.T @ dlogits, "b2": dlogits.sum(axis=0)}
    lr = config.learning_rate
    updated = {name: getattr(model, name) - lr * grad for name, grad in grads.items()}
    for name, value in updated.items():
        finite = np.isfinite(value)
        if not finite.all():
            raise DivergenceError(
                f"step {t}: non-finite parameter: the update would set {np.count_nonzero(~finite)} "
                f"{name} entries non-finite (first {value[~finite][0]}); parameters must be finite"
            )
    for name, value in updated.items():
        getattr(model, name)[...] = value
    return BatchLoss(losses, weighted_mean, applied_weight)


def utterance_loss(model: AcousticModel, example: FrameExample) -> float:
    """Mean-over-frames cross-entropy of one utterance under the current model."""
    logits = forward(model, example.features, example.lang)
    losses, _ = loss_mod.segment_nll(logits, example.labels, [len(example.labels)])
    return float(losses[0])


def validation_losses(model: AcousticModel, examples: list[FrameExample]) -> dict[int, float]:
    """Per-language mean utterance loss."""
    return loss_mod.per_language_average((ex.lang, utterance_loss(model, ex)) for ex in examples)


def decode(model: AcousticModel, features: np.ndarray, language: int) -> str:
    """Majority-vote transcription assuming the clean 10-frames-per-symbol geometry.

    Raises ``ValueError`` unless the frame count is a positive multiple of
    ``FRAMES_PER_SYMBOL``: other counts (time-stretched audio, say) break the
    geometry, and guessing the symbol count would insert or drop symbols.
    Ties within a block resolve to the lowest symbol index.
    """
    from .synthlang import SYMBOLS

    n_frames = np.asarray(features).shape[0]
    if n_frames < FRAMES_PER_SYMBOL or n_frames % FRAMES_PER_SYMBOL:
        raise ValueError(f"cannot decode {n_frames} frames: need a positive multiple of {FRAMES_PER_SYMBOL}")
    n_symbols = n_frames // FRAMES_PER_SYMBOL
    frame_syms = forward(model, features, language).argmax(axis=1)
    out = []
    for j in range(n_symbols):
        block = frame_syms[j * FRAMES_PER_SYMBOL : (j + 1) * FRAMES_PER_SYMBOL]
        votes = np.bincount(block, minlength=model.config.n_symbols)
        out.append(SYMBOLS[int(votes.argmax())])
    return "".join(out)


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(model: AcousticModel, meta: dict, path: str | Path) -> Path:
    """Versioned JSON checkpoint; float round-trip is exact.

    Raises ``ValueError``, and writes nothing, when a parameter is non-finite:
    JSON has no NaN or infinity.
    """
    path = Path(path)
    for name, arr in model.parameters().items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: cannot save checkpoint: {name} contains non-finite values")
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": CHECKPOINT_VERSION,
        "model_config": asdict(model.config),
        "params": {name: arr.tolist() for name, arr in model.parameters().items()},
        "meta": meta,
    }
    path.write_text(json.dumps(payload, allow_nan=False))
    return path


def load_checkpoint(path: str | Path, expect_config: ModelConfig | None = None) -> tuple[AcousticModel, dict]:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise DataFormatError(f"{path}: unreadable checkpoint: {e}") from e
    if payload.get("version") != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: checkpoint version {payload.get('version')}, expected {CHECKPOINT_VERSION}")
    try:
        config = ModelConfig(**payload["model_config"])
        params = {name: np.asarray(payload["params"][name], dtype=np.float64) for name in ("W1", "b1", "W2", "b2")}
    except (KeyError, TypeError, ValueError) as e:
        raise DataFormatError(f"{path}: malformed checkpoint: {e}") from e
    if expect_config is not None and config != expect_config:
        raise DataFormatError(f"{path}: checkpoint config {config} does not match expected {expect_config}")
    try:
        model = AcousticModel(config=config, **params)
    except (DataFormatError, ValueError) as e:
        raise DataFormatError(f"{path}: invalid parameters: {e}") from e
    return model, payload.get("meta", {})


# ---------------------------------------------------------------------------
# phase runner


@dataclass
class PhaseResult:
    model: AcousticModel
    metrics: list[dict]  # rows: step, split, language, loss, applied_weight
    final_step: int


def run_phase(
    phase: str,
    corpus_dir: str | Path,
    config: TrainConfig,
    model_cfg: ModelConfig | None = None,
    start_model: AcousticModel | None = None,
    dataset: dict[str, list[FrameExample]] | None = None,
) -> PhaseResult:
    """Train on one split (``pretrain`` or ``finetune``) with periodic validation.

    Pretraining starts from a fresh initialization; fine-tuning requires the
    shared pretrain model. Batches are sampled uniformly with replacement from
    the phase split, deterministically in ``config.seed``. ``dataset`` may
    supply preloaded featurized splits keyed by split name.
    """
    if phase not in ("pretrain", "finetune"):
        raise ValueError(f"phase must be 'pretrain' or 'finetune', got {phase!r}")
    corpus_cfg, languages = load_corpus_meta(corpus_dir)
    low_lang = corpus_cfg.low_lang
    lang_names = {l.id: l.name for l in languages}

    dataset = dataset or {}
    train_examples = dataset.get(phase) or load_examples(corpus_dir, phase, languages)
    valid_examples = dataset.get("valid") or load_examples(corpus_dir, "valid", languages)

    if phase == "pretrain":
        if start_model is not None:
            raise ValueError("pretraining starts from scratch; do not pass a starting model")
        model_cfg = model_cfg or ModelConfig(n_langs=len(languages))
        model = init_model(model_cfg, seed=derive_seed(config.seed, "init"))
    else:
        if start_model is None:
            raise ValueError("fine-tuning requires the shared pretrain model")
        model = start_model
    if model.config.n_langs != len(languages):
        raise DataFormatError(
            f"model expects {model.config.n_langs} languages but corpus has {len(languages)}"
        )

    rng = np.random.default_rng(derive_seed(config.seed, "batches", phase))
    n = len(train_examples)
    rows = []
    for t in range(1, config.total_steps + 1):
        batch = [train_examples[i] for i in rng.integers(0, n, size=config.batch_size)]
        batch_loss = train_step(model, batch, t, config, low_lang)
        rows.append(
            {
                "step": t,
                "split": "train",
                "language": "all",
                "loss": batch_loss.weighted_mean,
                "applied_weight": batch_loss.applied_weight,
            }
        )
        if t % config.eval_every == 0:
            for lang_id, vloss in sorted(validation_losses(model, valid_examples).items()):
                rows.append(
                    {
                        "step": t,
                        "split": "valid",
                        "language": lang_names[lang_id],
                        "loss": vloss,
                        "applied_weight": batch_loss.applied_weight,
                    }
                )
    return PhaseResult(model=model, metrics=rows, final_step=config.total_steps)
