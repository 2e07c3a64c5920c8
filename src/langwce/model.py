"""Language-conditioned frame classifier with hand-derived backpropagation.

The model is a two-layer tanh MLP over a context window of filterbank frames
concatenated with a one-hot language vector:

    logits = W2' * tanh(W1' * input + b1) + b2

Training, validation and decoding share one input path: ``build_inputs``
turns a batch of utterances into one [frames x d_in] matrix, with each
utterance's frames in order and no padding between them, and ``_layers``
applies the tanh and output layers to it. A train step and a whole
validation split are each one such batch; ``forward`` and ``decode`` are a
batch of one utterance. ``run_phase`` builds its training split's and its
validation split's inputs once each, with one ``build_inputs`` call per split;
every step then gathers its batch's rows and labels from the training split's
arrays with one index array, and every evaluation reuses the validation
split's. The forward and backward passes make each batch-sized array once
and add the biases, apply ``tanh`` and scale by its derivative in place;
``decode`` counts every block's votes with one ``np.bincount``.

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
from typing import Sequence

import numpy as np

from . import loss as loss_mod
from .loss import BatchLoss
from .schedule import WeightMode, Weighting
from .synthlang import FRAMES_PER_SYMBOL, FREQ_GRID, SYMBOLS, FrameExample, load_corpus_meta, load_examples
from .util import DataFormatError, DivergenceError, derive_seed, require_finite_reals, require_ints

CHECKPOINT_VERSION = 2
# Divergence bound on a batch's unweighted mean utterance loss, in units of
# ln(len(SYMBOLS)), the loss of a uniform guess; 100 * ln 8 is about 208. On the
# benchmark's paper-grid corpus (1,000 pretrain steps, then constant and
# dynamic LWCE fine-tunes) the largest batch mean was 2.4 at the default
# learning rate of 0.1 and 36 at 10; at 100 it reached 568, which trips it.
LOSS_EXPLOSION_FACTOR = 100.0


@dataclass(frozen=True)
class ModelConfig:
    """The model's free dimensions.

    The widths are the corpus's: ``len(FREQ_GRID)`` features per frame in,
    ``len(SYMBOLS)`` logits per frame out.
    """

    context: int = 2  # frames of context on each side
    hidden: int = 64
    n_langs: int = 6

    def __post_init__(self):
        require_ints(self, "context", "hidden", "n_langs")
        if min(self.hidden, self.n_langs) < 1 or self.context < 0:
            raise ValueError(f"invalid model dimensions: {self}")

    @property
    def d_in(self) -> int:
        return len(FREQ_GRID) * (2 * self.context + 1) + self.n_langs


@dataclass
class AcousticModel:
    config: ModelConfig
    W1: np.ndarray  # [d_in x hidden]
    b1: np.ndarray  # [hidden]
    W2: np.ndarray  # [hidden x len(SYMBOLS)]
    b2: np.ndarray  # [len(SYMBOLS)]

    def __post_init__(self):
        c = self.config
        shapes = {
            "W1": (c.d_in, c.hidden),
            "b1": (c.hidden,),
            "W2": (c.hidden, len(SYMBOLS)),
            "b2": (len(SYMBOLS),),
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
        require_ints(self, "total_steps", "batch_size", "eval_every", "seed")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.total_steps < self.eval_every:
            raise ValueError("total_steps must be >= eval_every")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 so a batch can mix languages")
        require_finite_reals(self, "learning_rate")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        w = self.weighting
        if not isinstance(w, Weighting):
            raise ValueError(f"weighting must be a Weighting, got {w!r}")
        if w.mode is WeightMode.LINEAR and w.linear.t_total < self.total_steps:
            raise ValueError(
                f"the linear schedule ends at t_total={w.linear.t_total}, before total_steps={self.total_steps}"
            )


def init_model(config: ModelConfig, seed: int) -> AcousticModel:
    """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    a1 = math.sqrt(6.0 / (config.d_in + config.hidden))
    a2 = math.sqrt(6.0 / (config.hidden + len(SYMBOLS)))
    return AcousticModel(
        config=config,
        W1=rng.uniform(-a1, a1, size=(config.d_in, config.hidden)),
        b1=np.zeros(config.hidden),
        W2=rng.uniform(-a2, a2, size=(config.hidden, len(SYMBOLS))),
        b2=np.zeros(len(SYMBOLS)),
    )


def build_inputs(
    config: ModelConfig, features: Sequence[np.ndarray], languages: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Model inputs of a batch of utterances, one row per frame.

    ``features[j]`` is utterance j's [frames x len(FREQ_GRID)] matrix and
    ``languages[j]`` its language id. Each row holds the (2C+1)-frame context
    window around its frame, then the language one-hot. A window position
    before an utterance's first frame or after its last takes that boundary
    frame of the same utterance, never a neighbouring utterance's frame.
    Returns (inputs [N x d_in], sizes [B]): the utterances' rows in order and
    each utterance's frame count.
    """
    if len(features) == 0:
        raise ValueError("empty batch")
    if len(features) != len(languages):
        raise ValueError(f"{len(features)} feature matrices but {len(languages)} languages")
    feats = [np.asarray(f, dtype=np.float64) for f in features]
    for f in feats:
        if f.ndim != 2 or f.shape[1] != len(FREQ_GRID) or f.shape[0] < 1:
            raise ValueError(f"features must be [frames x {len(FREQ_GRID)}], got {f.shape}")
    langs = np.asarray(languages)
    if langs.dtype.kind not in "iu" or langs.min() < 0 or langs.max() >= config.n_langs:
        raise ValueError(f"unknown language id in {langs.tolist()}; model has {config.n_langs} languages")
    sizes = np.array([f.shape[0] for f in feats])
    frames = np.concatenate(feats)
    n_frames = len(frames)
    ends = np.cumsum(sizes)
    first = np.repeat(ends - sizes, sizes)[:, None]
    last = np.repeat(ends - 1, sizes)[:, None]
    c = config.context
    window = np.arange(n_frames)[:, None] + np.arange(-c, c + 1)
    np.maximum(window, first, out=window)
    np.minimum(window, last, out=window)
    n_context = len(FREQ_GRID) * (2 * c + 1)
    x = np.zeros((n_frames, config.d_in))
    x[:, :n_context] = np.take(frames, window, axis=0).reshape(n_frames, n_context)
    x[np.arange(n_frames), n_context + np.repeat(langs, sizes)] = 1.0
    return x, sizes


def _example_inputs(config: ModelConfig, examples: Sequence[FrameExample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inputs, labels, sizes) of examples, from one ``build_inputs`` call."""
    x, sizes = build_inputs(config, [ex.features for ex in examples], [ex.lang for ex in examples])
    return x, np.concatenate([ex.labels for ex in examples]), sizes


class _SplitInputs:
    """A split's model inputs, built once; a batch of its utterances is cut from them.

    ``inputs`` is the split's ``_example_inputs`` and ``starts[j]`` the first
    row of its utterance j. Every row depends only on its own utterance, so
    the rows ``gather`` cuts for a batch equal what ``build_inputs`` builds
    for it.
    """

    def __init__(self, config: ModelConfig, examples: Sequence[FrameExample]):
        self.inputs = _example_inputs(config, examples)
        sizes = self.inputs[2]
        self.starts = np.cumsum(sizes) - sizes

    def gather(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(inputs, labels, sizes) of the utterances ``idx``, in that order, with one row gather."""
        x, labels, sizes = self.inputs
        batch_sizes = sizes[idx]
        offsets = np.cumsum(batch_sizes) - batch_sizes
        rows = np.arange(offsets[-1] + batch_sizes[-1]) + np.repeat(self.starts[idx] - offsets, batch_sizes)
        return np.take(x, rows, axis=0), np.take(labels, rows), batch_sizes


def _layers(model: AcousticModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and frame logits of the inputs ``x``, each built in place."""
    hidden = x @ model.W1
    hidden += model.b1
    np.tanh(hidden, out=hidden)
    logits = hidden @ model.W2
    logits += model.b2
    return hidden, logits


def forward(model: AcousticModel, features: np.ndarray, language: int) -> np.ndarray:
    """Frame logits [frames x len(SYMBOLS)] of one utterance."""
    x, _ = build_inputs(model.config, [features], [language])
    return _layers(model, x)[1]


def train_step(
    model: AcousticModel,
    batch: list[FrameExample],
    t: int,
    config: TrainConfig,
    low_lang: int,
    inputs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> BatchLoss:
    """One SGD step on a batch of utterances; updates the model in place.

    ``inputs`` is the batch's (inputs, labels, sizes) when the caller has
    them already; they must equal ``_example_inputs`` of the batch. Without
    them the step builds them from the batch.

    When the batch contains the low-resource language the scheduler is
    consulted for the step weight (the dynamic scheduler sees this batch's
    unweighted language averages, treated as constants), and each
    low-resource utterance's loss is scaled by it; otherwise weighting is a
    no-op and the recorded applied weight is 1.

    Raises ``DivergenceError`` on a non-finite loss, on an unweighted mean
    utterance loss above ``LOSS_EXPLOSION_FACTOR * ln(len(SYMBOLS))``, or when the
    update would leave a non-finite parameter. The losses are checked before
    the scheduler sees them. In every case the model is left as it was before
    the failing step.
    """
    x_all, labels, sizes = _example_inputs(model.config, batch) if inputs is None else inputs
    if len(sizes) != len(batch):
        raise ValueError(f"inputs hold {len(sizes)} utterances but the batch has {len(batch)}")
    hidden, logits = _layers(model, x_all)
    per_sentence, probs = loss_mod.segment_nll(logits, labels, sizes)

    mean_loss = float(per_sentence.mean())
    if not math.isfinite(mean_loss):
        raise DivergenceError(f"step {t}: non-finite loss: unweighted mean utterance loss {mean_loss} (must be finite)")
    n_symbols = len(SYMBOLS)
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
    d_z = dlogits @ model.W2.T
    tanh_grad = hidden * hidden
    d_z *= np.subtract(1.0, tanh_grad, out=tanh_grad)
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


def validation_losses(
    model: AcousticModel,
    examples: list[FrameExample],
    inputs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> dict[int, float]:
    """Per-language mean utterance loss, the split run as one batch.

    ``inputs`` is the split's (inputs, labels, sizes) when the caller has
    them already, as ``train_step`` takes them.
    """
    x, labels, sizes = _example_inputs(model.config, examples) if inputs is None else inputs
    if len(sizes) != len(examples):
        raise ValueError(f"inputs hold {len(sizes)} utterances but the split has {len(examples)}")
    losses, _ = loss_mod.segment_nll(_layers(model, x)[1], labels, sizes)
    return loss_mod.per_language_average(zip([ex.lang for ex in examples], losses))


def decode(model: AcousticModel, features: np.ndarray, language: int) -> str:
    """Majority-vote transcription assuming the clean synthesis geometry.

    Each block of ``synthlang.FRAMES_PER_SYMBOL`` frames is one symbol.
    Raises ``ValueError`` unless the frame count is a positive multiple of
    it: other counts (time-stretched audio, say) break the geometry, and
    guessing the symbol count would insert or drop symbols.
    Ties within a block resolve to the lowest symbol index.
    """
    n_frames = np.asarray(features).shape[0]
    if n_frames < FRAMES_PER_SYMBOL or n_frames % FRAMES_PER_SYMBOL:
        raise ValueError(f"cannot decode {n_frames} frames: need a positive multiple of {FRAMES_PER_SYMBOL}")
    n_symbols = len(SYMBOLS)
    cells = np.arange(n_frames) // FRAMES_PER_SYMBOL * n_symbols + forward(model, features, language).argmax(axis=1)
    votes = np.bincount(cells, minlength=n_frames // FRAMES_PER_SYMBOL * n_symbols).reshape(-1, n_symbols)
    return "".join(SYMBOLS[i] for i in votes.argmax(axis=1))


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
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: malformed checkpoint: top level is {type(payload).__name__}, not an object")
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
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise DataFormatError(f"{path}: malformed checkpoint: meta is {type(meta).__name__}, not an object")
    return model, meta


# ---------------------------------------------------------------------------
# phase runner


@dataclass
class PhaseResult:
    model: AcousticModel
    metrics: list[dict]  # rows: step, split, language, loss; train rows also applied_weight


def run_phase(
    phase: str,
    corpus_dir: str | Path,
    config: TrainConfig,
    start_model: AcousticModel | None = None,
    dataset: dict[str, list[FrameExample]] | None = None,
) -> PhaseResult:
    """Train on one split (``pretrain`` or ``finetune``) with periodic validation.

    Pretraining starts from a fresh initialization; fine-tuning requires the
    shared pretrain model. Batches are sampled uniformly with replacement from
    the phase split, deterministically in ``config.seed``. ``dataset`` may
    supply preloaded featurized splits keyed by split name; a split it holds
    is used as given, and an empty one raises ``DataFormatError``.
    """
    if phase not in ("pretrain", "finetune"):
        raise ValueError(f"phase must be 'pretrain' or 'finetune', got {phase!r}")
    corpus_cfg, languages = load_corpus_meta(corpus_dir)
    low_lang = corpus_cfg.low_lang
    lang_names = {l.id: l.name for l in languages}

    dataset = dataset or {}
    for split in (phase, "valid"):
        if split in dataset and not dataset[split]:
            raise DataFormatError(f"preloaded split {split!r} has no utterances")
    train_examples = dataset[phase] if phase in dataset else load_examples(corpus_dir, phase, languages)
    valid_examples = dataset["valid"] if "valid" in dataset else load_examples(corpus_dir, "valid", languages)

    if phase == "pretrain":
        if start_model is not None:
            raise ValueError("pretraining starts from scratch; do not pass a starting model")
        model = init_model(ModelConfig(n_langs=len(languages)), seed=derive_seed(config.seed, "init"))
    else:
        if start_model is None:
            raise ValueError("fine-tuning requires the shared pretrain model")
        model = start_model
    if model.config.n_langs != len(languages):
        raise DataFormatError(
            f"model expects {model.config.n_langs} languages but corpus has {len(languages)}"
        )

    train_split = _SplitInputs(model.config, train_examples)
    valid_inputs = _example_inputs(model.config, valid_examples)
    rng = np.random.default_rng(derive_seed(config.seed, "batches", phase))
    n = len(train_examples)
    rows = []
    for t in range(1, config.total_steps + 1):
        idx = rng.integers(0, n, size=config.batch_size)
        batch = [train_examples[i] for i in idx]
        batch_loss = train_step(model, batch, t, config, low_lang, inputs=train_split.gather(idx))
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
            for lang_id, vloss in sorted(validation_losses(model, valid_examples, inputs=valid_inputs).items()):
                rows.append({"step": t, "split": "valid", "language": lang_names[lang_id], "loss": vloss})
    return PhaseResult(model=model, metrics=rows)
