"""Language-conditioned frame classifier with hand-derived backpropagation.

The model is a two-layer tanh MLP over a context window of filterbank frames
concatenated with a one-hot language vector:

    logits = W2' * tanh(W1' * input + b1) + b2

Training, validation and decoding share one input path, ``build_inputs``.

Training is plain SGD on the language-weighted batch loss of ``loss``; the
backward pass through the tanh layer is derived by hand here, and the test
suite pins it against central finite differences. Everything runs in double
precision. Trained parameters are defined at one BLAS thread: OpenBLAS
splits a long matrix product across its threads and rounds it differently,
so a caller pins one thread with ``OPENBLAS_NUM_THREADS=1`` before numpy is
first imported, as ``bench/run.py`` does. So pinned, training is
deterministic given the seeds.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import loss as loss_mod
from .schedule import WeightMode, Weighting
from .synthlang import FRAMES_PER_SYMBOL, FREQ_GRID, SYMBOLS, FrameExample, load_corpus_meta
from .synthlang import load_examples  # unused here: kept only for the benchmark's tracer, which binds model.load_examples
from .util import DataFormatError, DivergenceError, derive_seed, is_int, read_file, write_file
from .util import require_finite_reals, require_ints, require_keys

CHECKPOINT_VERSION = 2
_PARAM_NAMES = ("W1", "b1", "W2", "b2")
# train_step's explosion bound, in units of the loss of a uniform guess. On the
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


_MODEL_CONFIG_KEYS = tuple(f.name for f in fields(ModelConfig))


@dataclass
class AcousticModel:
    config: ModelConfig
    W1: np.ndarray  # [d_in x hidden]
    b1: np.ndarray  # [hidden]
    W2: np.ndarray  # [hidden x len(SYMBOLS)]
    b2: np.ndarray  # [len(SYMBOLS)]

    def __post_init__(self):
        for name in _PARAM_NAMES:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        _check_parameters(self.config, self.parameters())

    def parameters(self) -> dict[str, np.ndarray]:
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}


def _check_parameters(config: ModelConfig, params: dict[str, np.ndarray]) -> None:
    """Raise ``ValueError`` naming the first parameter whose shape is not the one ``config`` gives it, or that is non-finite."""
    shapes = {
        "W1": (config.d_in, config.hidden),
        "b1": (config.hidden,),
        "W2": (config.hidden, len(SYMBOLS)),
        "b2": (len(SYMBOLS),),
    }
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise ValueError(f"{name} has shape {params[name].shape}, expected {shape}")
        if not np.all(np.isfinite(params[name])):
            raise ValueError(f"{name} contains non-finite values")


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


class _SplitInputs:
    """A split's model inputs, built once; a batch of its utterances is cut from them.

    ``inputs`` is the split's (inputs, labels, sizes), from one ``build_inputs``
    call, ``languages[j]`` the language id of its utterance j and ``starts[j]``
    that utterance's first row. Every row depends only on its own utterance,
    so the rows ``gather`` cuts for a batch equal what ``build_inputs`` builds
    for it.
    """

    def __init__(self, config: ModelConfig, examples: Sequence[FrameExample]):
        self.languages = np.array([ex.lang for ex in examples])
        x, sizes = build_inputs(config, [ex.features for ex in examples], self.languages)
        self.inputs = x, np.concatenate([ex.labels for ex in examples]), sizes
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
    inputs: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """One SGD step on a batch of utterances; updates the model in place.

    ``inputs`` is the batch's (inputs, labels, sizes), in batch order, as
    ``run_phase`` gathers them from its split's ``_SplitInputs``; the step
    reads only each utterance's language from ``batch``.

    When the batch contains the low-resource language the scheduler is
    consulted for the step weight (the dynamic scheduler sees this batch's
    unweighted language averages from ``loss.group_means``, treated as
    constants), and each low-resource utterance's loss is scaled by it;
    otherwise every utterance weighs 1.

    Raises ``DivergenceError``, and leaves the model as it was, when:

    1. a loss is non-finite: the batch's unweighted mean utterance loss, or
       the weighted batch loss;
    2. the unweighted mean utterance loss exceeds the explosion bound
       ``LOSS_EXPLOSION_FACTOR * ln(len(SYMBOLS))``, about 208 at 8 symbols,
       ln(len(SYMBOLS)) being the loss of a uniform guess. The bound reads
       unweighted losses, so a large language weight alone cannot trip it;
    3. the update would leave a non-finite parameter.

    The unweighted losses are checked before the scheduler sees them. The
    message names the step, the criterion, and the offending value with its
    bound.
    """
    x_all, labels, sizes = inputs
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
    if is_low.any():
        means = loss_mod.group_means(per_sentence, is_low)
        utt_weights[is_low] = config.weighting.decide(t, means[True], means.get(False, 0.0)).value

    weighted_mean = loss_mod.combine_sentence_losses(per_sentence.tolist(), utt_weights)
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


def validation_losses(model: AcousticModel, split: _SplitInputs) -> dict[int, float]:
    """Per-language mean utterance loss by ascending language id, from ``loss.group_means``; the split is one batch."""
    x, labels, sizes = split.inputs
    losses, _ = loss_mod.segment_nll(_layers(model, x)[1], labels, sizes)
    return loss_mod.group_means(losses, split.languages)


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


def _check_meta(meta) -> None:
    """Raise ``ValueError`` unless ``meta`` is a dict that JSON encodes without NaN or infinity and reads back equal.

    A tuple reads back as a list, and a key that is not a string as a string.
    """
    if not isinstance(meta, dict):
        raise ValueError(f"meta is {type(meta).__name__}, not a dict")
    read_back = json.loads(json.dumps(meta, allow_nan=False))
    if read_back != meta:
        raise ValueError(f"meta {meta!r} would load as {read_back!r}")


def save_checkpoint(model: AcousticModel, meta: dict, path: str | Path) -> Path:
    """Versioned JSON checkpoint; float round-trip is exact.

    Raises ``ValueError`` naming the file, and writes nothing, for what
    ``_check_parameters`` or ``_check_meta`` refuses.
    """
    path = Path(path)
    try:
        _check_parameters(model.config, model.parameters())
        _check_meta(meta)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: cannot save checkpoint: {e}") from e
    payload = {
        "version": CHECKPOINT_VERSION,
        "model_config": asdict(model.config),
        "params": {name: arr.tolist() for name, arr in model.parameters().items()},
        "meta": meta,
    }
    write_file(path, json.dumps(payload, allow_nan=False))
    return path


def load_checkpoint(path: str | Path, expect_config: ModelConfig | None = None) -> tuple[AcousticModel, dict]:
    """Read what ``save_checkpoint`` wrote; anything else raises ``DataFormatError`` naming the file."""
    path = Path(path)
    try:
        payload = json.loads(read_file(path, "checkpoint"))
        require_keys("top level", payload, ("version", "model_config", "params", "meta"))
        version = payload["version"]
        if not is_int(version):
            raise ValueError(f"version must be an int, got {version!r}")
        if version != CHECKPOINT_VERSION:
            raise DataFormatError(f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}")
        require_keys("model_config", payload["model_config"], _MODEL_CONFIG_KEYS)
        require_keys("params", payload["params"], _PARAM_NAMES)
        config = ModelConfig(**payload["model_config"])
        params = {name: np.asarray(payload["params"][name]) for name in _PARAM_NAMES}
        for name, arr in params.items():
            if arr.dtype.kind not in "iuf":
                raise ValueError(f"{name} is an array of {arr.dtype}, not of numbers")
        _check_meta(payload["meta"])
    except (TypeError, ValueError) as e:
        raise DataFormatError(f"{path}: malformed checkpoint: {e}") from e
    if expect_config is not None and config != expect_config:
        raise DataFormatError(f"{path}: checkpoint config {config} does not match expected {expect_config}")
    try:
        model = AcousticModel(config=config, **params)
    except ValueError as e:
        raise DataFormatError(f"{path}: invalid parameters: {e}") from e
    return model, payload["meta"]


# ---------------------------------------------------------------------------
# phase runner


@dataclass
class PhaseResult:
    model: AcousticModel
    valid_losses: dict[int, dict[int, float]]  # evaluation step -> validation_losses at that step


def run_phase(
    phase: str,
    corpus_dir: str | Path,
    config: TrainConfig,
    start_model: AcousticModel | None = None,
    *,
    dataset: dict[str, list[FrameExample]],
) -> PhaseResult:
    """Train on one split (``pretrain`` or ``finetune``) with periodic validation.

    Pretraining starts from a fresh initialization; fine-tuning trains a copy
    of the shared pretrain model ``start_model`` and leaves it unchanged.
    Batches are sampled uniformly with replacement from the phase split,
    deterministically in ``config.seed``. ``dataset`` holds the featurized
    splits by name: a missing ``phase`` or ``"valid"`` split raises
    ``ValueError``, an empty one ``DataFormatError``. ``corpus_dir`` supplies
    only ``corpus.json``, for the low language and the language count. Only
    ``validation_losses`` every ``config.eval_every`` steps is kept.
    """
    if phase not in ("pretrain", "finetune"):
        raise ValueError(f"phase must be 'pretrain' or 'finetune', got {phase!r}")
    corpus_cfg, languages = load_corpus_meta(corpus_dir)
    low_lang = corpus_cfg.low_lang

    for split in (phase, "valid"):
        if split not in dataset:
            raise ValueError(f"dataset has no {split!r} split")
        if not dataset[split]:
            raise DataFormatError(f"preloaded split {split!r} has no utterances")
    train_examples, valid_examples = dataset[phase], dataset["valid"]

    if phase == "pretrain":
        if start_model is not None:
            raise ValueError("pretraining starts from scratch; do not pass a starting model")
        model = init_model(ModelConfig(n_langs=len(languages)), seed=derive_seed(config.seed, "init"))
    else:
        if start_model is None:
            raise ValueError("fine-tuning requires the shared pretrain model")
        model = copy.deepcopy(start_model)
    if model.config.n_langs != len(languages):
        raise DataFormatError(
            f"{Path(corpus_dir) / 'corpus.json'}: model expects {model.config.n_langs} languages "
            f"but corpus has {len(languages)}"
        )

    train_split = _SplitInputs(model.config, train_examples)
    valid_split = _SplitInputs(model.config, valid_examples)
    rng = np.random.default_rng(derive_seed(config.seed, "batches", phase))
    n = len(train_examples)
    valid_losses = {}
    for t in range(1, config.total_steps + 1):
        idx = rng.integers(0, n, size=config.batch_size)
        train_step(model, [train_examples[i] for i in idx], t, config, low_lang, train_split.gather(idx))
        if t % config.eval_every == 0:
            valid_losses[t] = validation_losses(model, valid_split)
    return PhaseResult(model=model, valid_losses=valid_losses)
