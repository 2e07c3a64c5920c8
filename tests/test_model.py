"""Tests for the frame classifier: forward, gradients, decoding, checkpoints, phases."""

import copy
import math
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TINY
from helpers import example_inputs, oracle_layers, oracle_sgd_update, oracle_vote, oracle_window, same_bits
from langwce import loss as loss_mod
from langwce.model import (
    _layers,
    _SplitInputs,
    ModelConfig,
    TrainConfig,
    build_inputs,
    decode,
    forward,
    init_model,
    LOSS_EXPLOSION_FACTOR,
    load_checkpoint,
    run_phase,
    save_checkpoint,
    train_step,
    validation_losses,
)
from langwce.schedule import DynamicSchedule, LinearSchedule, WeightMode, Weighting
from langwce.synthlang import FRAMES_PER_SYMBOL, FREQ_GRID, SYMBOLS, FrameExample, load_examples, make_languages
from langwce.util import DataFormatError, DivergenceError, derive_seed

TINY_MODEL = ModelConfig(context=1, hidden=4, n_langs=3)
TINY_LANGS = make_languages(TINY.n_langs, TINY.seed)


def fake_example(rng, lang, n_frames=12, utt_id=None):
    return FrameExample(
        utt_id=utt_id or f"utt-{lang}-{rng.integers(1e6)}",
        lang=lang,
        text="AB",
        features=rng.normal(0, 1, size=(n_frames, 8)),
        labels=rng.integers(0, 8, size=n_frames),
    )


def fake_batch(rng, langs, cfg=TINY_MODEL):
    return [fake_example(rng, lang, n_frames=int(rng.integers(4, 14))) for lang in langs]


class TestTrainConfig:
    def test_eval_every_below_one_rejected(self):
        for every in (0, -1):
            with pytest.raises(ValueError, match=f"eval_every must be >= 1, got {every}"):
                TrainConfig(total_steps=10, eval_every=every)

    @pytest.mark.parametrize("name", ["total_steps", "batch_size", "eval_every", "seed"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_int_count_rejected(self, name, value):
        fields = {"total_steps": 10, "batch_size": 4, "eval_every": 5, "seed": 0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an int, got {re.escape(repr(value))}"):
            TrainConfig(**fields)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, pytest.param(10**400, id="int-too-large-for-a-float")])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match=f"^learning_rate must be a finite real number, got {rate}$"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("rate", ["0.1", True, None])
    def test_non_real_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match=f"^learning_rate must be a finite real number, got {re.escape(repr(rate))}$"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("rate", [0, -0.1])
    def test_non_positive_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match=f"^learning_rate must be positive, got {rate}$"):
            TrainConfig(learning_rate=rate)

    def test_linear_schedule_shorter_than_run_rejected(self):
        ramp = Weighting(WeightMode.LINEAR, linear=LinearSchedule(1.5, 3.0, t_min=5, t_total=20))
        with pytest.raises(ValueError, match="t_total=20, before total_steps=40"):
            TrainConfig(total_steps=40, eval_every=10, weighting=ramp)
        assert TrainConfig(total_steps=20, eval_every=10, weighting=ramp).weighting is ramp

    @pytest.mark.parametrize("weighting", [None, "dynamic", WeightMode.DYNAMIC])
    def test_weighting_of_another_type_rejected(self, weighting):
        with pytest.raises(ValueError, match=f"weighting must be a Weighting, got {re.escape(repr(weighting))}"):
            TrainConfig(weighting=weighting)


class TestModelConfig:
    @pytest.mark.parametrize("name", ["context", "hidden", "n_langs"])
    @pytest.mark.parametrize("value", [1.5, True])
    def test_non_int_dimension_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
            ModelConfig(**{name: value})


class TestInitModel:
    def test_deterministic(self):
        a = init_model(TINY_MODEL, seed=4)
        b = init_model(TINY_MODEL, seed=4)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_biases_zero_and_weights_bounded(self):
        m = init_model(TINY_MODEL, seed=0)
        assert np.all(m.b1 == 0.0) and np.all(m.b2 == 0.0)
        assert np.abs(m.W1).max() <= math.sqrt(6 / (TINY_MODEL.d_in + TINY_MODEL.hidden))
        assert np.abs(m.W2).max() <= math.sqrt(6 / (TINY_MODEL.hidden + len(SYMBOLS)))


class TestForward:
    def test_zero_model_with_output_bias(self):
        m = init_model(TINY_MODEL, seed=0)
        m.W1[:] = 0.0
        m.W2[:] = 0.0
        m.b2[:] = np.array([1.0] + [0.0] * 7)
        logits = forward(m, np.zeros((5, 8)), language=0)
        np.testing.assert_array_equal(logits, np.tile(m.b2, (5, 1)))

    def test_language_conditioning_changes_logits(self):
        rng = np.random.default_rng(8)
        m = init_model(TINY_MODEL, seed=8)
        feats = rng.normal(size=(6, 8))
        assert not np.allclose(forward(m, feats, 0), forward(m, feats, 1))

    def test_unknown_language_rejected(self):
        m = init_model(TINY_MODEL, seed=0)
        with pytest.raises(ValueError):
            forward(m, np.zeros((4, 8)), language=3)

    def test_matches_straight_line_oracle(self):
        # independent per-frame reimplementation with explicit loops
        rng = np.random.default_rng(12)
        m = init_model(TINY_MODEL, seed=12)
        feats = rng.normal(size=(5, 8))
        lang = 2
        got = forward(m, feats, lang)
        c = m.config.context
        for f in range(5):
            window = []
            for offset in range(-c, c + 1):
                window.extend(feats[min(max(f + offset, 0), 4)])
            window.extend(1.0 if i == lang else 0.0 for i in range(m.config.n_langs))
            hidden = [
                math.tanh(sum(window[d] * m.W1[d, h] for d in range(m.config.d_in)) + m.b1[h])
                for h in range(m.config.hidden)
            ]
            for v in range(len(SYMBOLS)):
                expected = sum(hidden[h] * m.W2[h, v] for h in range(m.config.hidden)) + m.b2[v]
                assert got[f, v] == pytest.approx(expected, abs=1e-12)

    def test_edge_frames_replicate_boundary(self):
        feats = np.arange(16, dtype=float).reshape(2, 8)
        x, _ = build_inputs(TINY_MODEL, [feats], [0])
        # frame 0 context: [f0, f0, f1]
        np.testing.assert_array_equal(x[0, :8], feats[0])
        np.testing.assert_array_equal(x[0, 8:16], feats[0])
        np.testing.assert_array_equal(x[0, 16:24], feats[1])


@st.composite
def input_batches(draw):
    """(config, features, languages): 1-5 utterances of 1-7 frames, context 0-3, mixed languages."""
    config = ModelConfig(context=draw(st.integers(0, 3)), hidden=2, n_langs=3)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))
    languages = draw(st.lists(st.integers(0, 2), min_size=len(sizes), max_size=len(sizes)))
    return config, [rng.normal(size=(n, len(FREQ_GRID))) for n in sizes], languages


class TestBuildInputs:
    @settings(max_examples=200, deadline=None)
    @given(batch=input_batches())
    def test_rows_match_per_frame_oracle(self, batch):
        config, features, languages = batch
        x, sizes = build_inputs(config, features, languages)
        expected = []
        for feats, lang in zip(features, languages):
            last = len(feats) - 1
            for f in range(len(feats)):
                row = []
                for offset in range(-config.context, config.context + 1):
                    row.extend(feats[min(max(f + offset, 0), last)])
                row.extend(1.0 if i == lang else 0.0 for i in range(config.n_langs))
                expected.append(row)
        assert sizes.tolist() == [len(f) for f in features]
        assert np.array_equal(x, np.array(expected))

    @pytest.mark.parametrize("context", [0, 1, 2])
    def test_window_matches_clip_oracle(self, context):
        # each frame's features are its row number, so each window position's first column reads it back
        sizes = [1, 2, 5, 3, 1]
        config = ModelConfig(context=context, hidden=2, n_langs=2)
        rows = np.repeat(np.arange(sum(sizes), dtype=float)[:, None], len(FREQ_GRID), axis=1)
        x, _ = build_inputs(config, np.split(rows, np.cumsum(sizes)[:-1]), [0] * len(sizes))
        n_context = len(FREQ_GRID) * (2 * context + 1)
        assert np.array_equal(x[:, : n_context : len(FREQ_GRID)], oracle_window(sizes, context))

    @pytest.mark.parametrize(
        "features, languages, message",
        [
            ([], [], "empty batch"),
            ([np.zeros((4, 8))], [0, 1], "1 feature matrices but 2 languages"),
            ([np.zeros((4, 8)), np.zeros((4, 7))], [0, 1], r"features must be \[frames x 8\], got \(4, 7\)"),
            ([np.zeros((0, 8))], [0], r"got \(0, 8\)"),
            ([np.zeros(8)], [0], r"got \(8,\)"),
            ([np.zeros((4, 8)), np.zeros((4, 8))], [0, 3], "unknown language id"),
            ([np.zeros((4, 8))], [-1], "unknown language id"),
            ([np.zeros((4, 8))], [0.0], "unknown language id"),
        ],
    )
    def test_bad_batch_rejected(self, features, languages, message):
        with pytest.raises(ValueError, match=message):
            build_inputs(TINY_MODEL, features, languages)


@st.composite
def split_draws(draw):
    """(config, split, idx): a split of 1-8 utterances of 1-9 frames, context 0-3, and 1-12 indices into it."""
    config = ModelConfig(context=draw(st.integers(0, 3)), hidden=2, n_langs=3)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=8))
    split = [
        FrameExample(f"u{j}", int(rng.integers(0, 3)), "A", rng.normal(size=(n, len(FREQ_GRID))), rng.integers(0, 8, size=n))
        for j, n in enumerate(sizes)
    ]
    idx = draw(st.lists(st.integers(0, len(split) - 1), min_size=1, max_size=12))
    return config, split, np.array(idx)


class TestSplitInputs:
    @settings(max_examples=200, deadline=None)
    @given(draw=split_draws())
    def test_gather_equals_build_inputs_on_the_batch(self, draw):
        config, split, idx = draw
        x, labels, sizes = _SplitInputs(config, split).gather(idx)
        batch = [split[i] for i in idx]
        want_x, want_sizes = build_inputs(config, [ex.features for ex in batch], [ex.lang for ex in batch])
        want_labels = np.concatenate([ex.labels for ex in batch])
        for got, want in ((x, want_x), (labels, want_labels), (sizes, want_sizes)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_inputs_of_another_batch_rejected(self):
        rng = np.random.default_rng(53)
        batch = fake_batch(rng, [0, 1, 2])
        cfg = TrainConfig(total_steps=10, eval_every=10, batch_size=2)
        m = init_model(TINY_MODEL, seed=5)
        with pytest.raises(ValueError, match="inputs hold 2 utterances but the batch has 3"):
            train_step(m, batch, 1, cfg, low_lang=2, inputs=example_inputs(TINY_MODEL, batch[:2]))


def oracle_utterance_loss(model, ex):
    """Mean over frames of a per-frame log-softmax NLL, written out in Python."""
    frame_nll = [
        math.log(sum(math.exp(z - max(row)) for z in row)) - (row[label] - max(row))
        for row, label in zip(forward(model, ex.features, ex.lang).tolist(), ex.labels)
    ]
    return sum(frame_nll) / len(frame_nll)


def weighted_objective(model, batch, weights):
    """The loss train_step differentiates, with the step weight held fixed.

    ``weights`` maps a language to its weight; unlisted languages weigh 1.
    """
    total = 0.0
    for ex in batch:
        total += weights.get(ex.lang, 1.0) * oracle_utterance_loss(model, ex)
    return total / len(batch)


def analytic_gradients(model, batch, t, config, low_lang, recorded):
    """Recover train_step's gradient from the SGD update on a copy, and the low-resource weight it applied."""
    probe = copy.deepcopy(model)
    n_decided = len(recorded.weights)
    train_step(probe, batch, t, config, low_lang, example_inputs(model.config, batch))
    grads = {
        name: (getattr(model, name) - getattr(probe, name)) / config.learning_rate
        for name in ("W1", "b1", "W2", "b2")
    }
    applied = [w for _, w in recorded.weights[n_decided:]]
    return grads, applied[0] if applied else 1.0


def fd_gradients(model, batch, weights, h=1e-5):
    grads = {}
    for name in ("W1", "b1", "W2", "b2"):
        arr = getattr(model, name)
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            up = weighted_objective(model, batch, weights)
            arr[idx] = orig - h
            down = weighted_objective(model, batch, weights)
            arr[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def max_rel_err(a, b):
    worst = 0.0
    for name in a:
        denom = np.maximum(np.maximum(np.abs(a[name]), np.abs(b[name])), 1e-5)
        worst = max(worst, float((np.abs(a[name] - b[name]) / denom).max()))
    return worst


@pytest.fixture
def recorded(monkeypatch):
    """What ``train_step`` decides and combines, in call order.

    ``weights`` holds (t, value) of each ``Weighting.decide`` call, and
    ``means`` each weighted batch mean ``loss.combine_sentence_losses`` returns.
    """
    seen = SimpleNamespace(weights=[], means=[])
    decide, combine = Weighting.decide, loss_mod.combine_sentence_losses

    def record_decide(self, t, *args):
        decision = decide(self, t, *args)
        seen.weights.append((t, decision.value))
        return decision

    def record_combine(*args):
        seen.means.append(combine(*args))
        return seen.means[-1]

    monkeypatch.setattr(Weighting, "decide", record_decide)
    monkeypatch.setattr(loss_mod, "combine_sentence_losses", record_combine)
    return seen


WEIGHTINGS = {
    "none": Weighting(),
    "constant": Weighting(WeightMode.CONSTANT, constant=2.5),
    "linear": Weighting(WeightMode.LINEAR, linear=LinearSchedule(2.0, 5.0, t_min=3, t_total=100)),
    "dynamic": Weighting(WeightMode.DYNAMIC, dynamic=DynamicSchedule(alpha=1.5)),
}


class TestTrainStep:
    def test_batch_without_low_language_is_unweighted(self, recorded):
        rng = np.random.default_rng(22)
        batch = fake_batch(rng, [0, 1, 0])
        cfg = TrainConfig(
            total_steps=10, eval_every=10, batch_size=2,
            weighting=Weighting(WeightMode.DYNAMIC, dynamic=DynamicSchedule(alpha=1.5)),
        )
        m = init_model(TINY_MODEL, seed=5)
        train_step(m, batch, 1, cfg, low_lang=2, inputs=example_inputs(m.config, batch))
        assert recorded.weights == []
        assert len(recorded.means) == 1

    def test_per_sentence_matches_loss_module(self, recorded):
        rng = np.random.default_rng(23)
        batch = fake_batch(rng, [0, 1, 2])
        m = init_model(TINY_MODEL, seed=7)
        frozen = copy.deepcopy(m)
        cfg = TrainConfig(total_steps=10, eval_every=10, batch_size=2,
                          weighting=Weighting(WeightMode.CONSTANT, constant=3.0))
        train_step(m, batch, 1, cfg, low_lang=2, inputs=example_inputs(m.config, batch))
        # straight-line reference: per-frame log-softmax, mean over frames,
        # weight 3 on language 2, divided by the batch size
        per_sentence = [oracle_utterance_loss(frozen, ex) for ex in batch]
        weighted = sum((3.0 if ex.lang == 2 else 1.0) * l for ex, l in zip(batch, per_sentence)) / len(batch)
        assert recorded.means == [pytest.approx(weighted, abs=1e-12)]
        assert recorded.weights == [(1, 3.0)]

    @pytest.mark.parametrize("langs", [[2, 2, 2], [0, 2, 1, 0, 2, 1, 0, 1, 0, 1, 2, 0], [1] * 9 + [2] * 9])
    def test_scheduler_sees_masked_language_means(self, monkeypatch, langs):
        seen = []
        decide = Weighting.decide
        monkeypatch.setattr(Weighting, "decide", lambda self, *args: seen.append(args) or decide(self, *args))
        rng = np.random.default_rng(len(langs))
        batch = fake_batch(rng, langs)
        m = init_model(TINY_MODEL, seed=17)
        inputs = example_inputs(m.config, batch)
        per_sentence, _ = loss_mod.segment_nll(_layers(m, inputs[0])[1], inputs[1], inputs[2])
        is_low = np.array(langs) == 2
        want_high = float(per_sentence[~is_low].mean()) if not is_low.all() else 0.0
        cfg = TrainConfig(total_steps=10, eval_every=10, batch_size=2, weighting=WEIGHTINGS["dynamic"])
        train_step(m, batch, 3, cfg, low_lang=2, inputs=inputs)
        assert seen == [(3, float(per_sentence[is_low].mean()), want_high)]
        assert all(type(v) is float for v in seen[0][1:])

    @pytest.mark.parametrize("mode", sorted(WEIGHTINGS))
    def test_gradients_match_finite_differences(self, mode, recorded):
        rng = np.random.default_rng(29)
        for _ in range(3):
            batch = fake_batch(rng, [0, 2] if mode == "dynamic" else [int(rng.integers(0, 3)) for _ in range(2)])
            cfg = TrainConfig(total_steps=100, eval_every=100, batch_size=2, weighting=WEIGHTINGS[mode])
            m = init_model(TINY_MODEL, seed=int(rng.integers(1e6)))
            analytic, weight = analytic_gradients(m, batch, t=5, config=cfg, low_lang=2, recorded=recorded)
            numeric = fd_gradients(m, batch, {2: weight})
            assert max_rel_err(analytic, numeric) < 1e-4

    def test_matches_out_of_place_oracle_step(self):
        rng = np.random.default_rng(71)
        config = ModelConfig(n_langs=3)
        m = init_model(config, seed=71)
        m.b1[:] = rng.normal(0, 0.5, size=m.b1.shape)
        m.b2[:] = rng.normal(0, 0.5, size=m.b2.shape)
        cfg = TrainConfig(total_steps=10, eval_every=10, batch_size=2,
                          weighting=Weighting(WeightMode.CONSTANT, constant=2.5))
        for t in range(1, 4):
            batch = fake_batch(rng, rng.integers(0, 3, size=6).tolist())
            x, labels, sizes = example_inputs(config, batch)
            for got, want in zip(_layers(m, x), oracle_layers(m, x)):
                assert same_bits(got, want)
            utt_weights = np.array([2.5 if ex.lang == 2 else 1.0 for ex in batch])
            want_params = oracle_sgd_update(m, x, labels, sizes, utt_weights, cfg.learning_rate)
            train_step(m, batch, t, cfg, low_lang=2, inputs=(x, labels, sizes))
            for name, want in want_params.items():
                assert same_bits(getattr(m, name), want), name

    def test_single_low_utterance_update_scales_with_weight(self):
        # the logit gradient train_step backpropagates is exactly linear in
        # the language weight; power-of-two weights keep the scaling bit-exact
        rng = np.random.default_rng(31)
        ex = fake_example(rng, lang=2)
        base = init_model(TINY_MODEL, seed=11)
        sizes = [len(ex.labels)]
        _, probs = loss_mod.segment_nll(forward(base, ex.features, ex.lang), ex.labels, sizes)
        g1 = loss_mod.logit_gradient(probs, ex.labels, sizes, np.array([1.0]))
        for w in (0.25, 2.0, 8.0):
            g = loss_mod.logit_gradient(probs, ex.labels, sizes, np.array([w]))
            assert np.array_equal(g, w * g1)

    def test_divergence_raises(self):
        rng = np.random.default_rng(33)
        batch = fake_batch(rng, [0, 1])
        cfg = TrainConfig(total_steps=100, eval_every=100, batch_size=2, learning_rate=1e307)
        m = init_model(TINY_MODEL, seed=13)
        inputs = example_inputs(m.config, batch)
        train_step(m, batch, 1, cfg, low_lang=2, inputs=inputs)
        before = copy.deepcopy(m)
        message = (
            r"^step 2: loss explosion: unweighted mean utterance loss 2\.93047e\+306 exceeds "
            r"the bound 207\.944 = 100 \* ln\(8\)$"
        )
        with pytest.raises(DivergenceError, match=message):
            train_step(m, batch, 2, cfg, low_lang=2, inputs=inputs)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(m, name), getattr(before, name))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_weighted_loss_raises_and_keeps_model(self):
        # the unweighted losses are finite and small; only the weight overflows the batch loss
        rng = np.random.default_rng(43)
        batch = fake_batch(rng, [0, 2])
        cfg = TrainConfig(total_steps=10, eval_every=10, batch_size=2,
                          weighting=Weighting(WeightMode.CONSTANT, constant=1e308))
        m = init_model(TINY_MODEL, seed=19)
        before = copy.deepcopy(m)
        with pytest.raises(DivergenceError, match=r"^step 1: non-finite loss: weighted batch loss inf \(must be finite\)$"):
            train_step(m, batch, 1, cfg, low_lang=2, inputs=example_inputs(m.config, batch))
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(m, name), getattr(before, name))

    def test_non_finite_feature_raises_at_its_step(self):
        # the NaN loss must stop the step before the dynamic scheduler sees it
        rng = np.random.default_rng(37)
        batch = fake_batch(rng, [0, 2])
        cfg = TrainConfig(
            total_steps=10, eval_every=10, batch_size=2,
            weighting=Weighting(WeightMode.DYNAMIC, dynamic=DynamicSchedule(alpha=1.5)),
        )
        m = init_model(TINY_MODEL, seed=15)
        for t in (1, 2):
            train_step(m, batch, t, cfg, low_lang=2, inputs=example_inputs(m.config, batch))
        bad = copy.deepcopy(batch)
        bad[1].features[3, 2] = np.nan
        before = copy.deepcopy(m)
        with pytest.raises(DivergenceError, match=r"step 3: non-finite loss"):
            train_step(m, bad, 3, cfg, low_lang=2, inputs=example_inputs(m.config, bad))
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(m, name), getattr(before, name))

    def test_large_weight_does_not_trip_explosion_bound(self, recorded):
        # weight 200 lifts the weighted loss far past the bound while the
        # unweighted losses stay small: the bound must read the unweighted ones
        rng = np.random.default_rng(41)
        batch = fake_batch(rng, [0, 2, 2, 2])
        cfg = TrainConfig(total_steps=100, eval_every=100, batch_size=2,
                          weighting=Weighting(WeightMode.CONSTANT, constant=200.0))
        m = init_model(TINY_MODEL, seed=17)
        bound = LOSS_EXPLOSION_FACTOR * math.log(len(SYMBOLS))
        inputs = example_inputs(m.config, batch)
        for t in range(1, 51):
            train_step(m, batch, t, cfg, low_lang=2, inputs=inputs)
        assert len(recorded.means) == 50
        assert max(recorded.means) > bound

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_update_raises_and_keeps_model(self):
        rng = np.random.default_rng(43)
        batch = fake_batch(rng, [0, 2])
        cfg = TrainConfig(total_steps=10, eval_every=10, batch_size=2, learning_rate=1e308,
                          weighting=Weighting(WeightMode.CONSTANT, constant=1e3))
        m = init_model(TINY_MODEL, seed=19)
        before = copy.deepcopy(m)
        with pytest.raises(DivergenceError, match=r"step 1: non-finite parameter"):
            train_step(m, batch, 1, cfg, low_lang=2, inputs=example_inputs(m.config, batch))
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(m, name), getattr(before, name))

    def test_overfits_single_batch(self):
        rng = np.random.default_rng(35)
        batch = [fake_example(rng, lang, n_frames=20) for lang in (0, 1, 2, 2)]
        cfg = TrainConfig(total_steps=500, eval_every=500, batch_size=4)
        m = init_model(ModelConfig(n_langs=3), seed=17)
        for t in range(1, 501):
            train_step(m, batch, t, cfg, low_lang=2, inputs=example_inputs(m.config, batch))
        assert sum(oracle_utterance_loss(m, ex) for ex in batch) / len(batch) < 0.05


class TestDecode:
    def make_passthrough_model(self):
        # argmax(logits) == argmax(features): identity-ish weights, no context
        cfg = ModelConfig(context=0, hidden=8, n_langs=2)
        m = init_model(cfg, seed=0)
        m.W1[:] = 0.0
        m.W1[:8, :8] = np.eye(8)
        m.b1[:] = 0.0
        m.W2[:] = np.eye(8)
        m.b2[:] = 0.0
        return m

    @staticmethod
    def features_for(symbol_ids):
        rows = np.full((len(symbol_ids), 8), -2.0)
        rows[np.arange(len(symbol_ids)), symbol_ids] = 2.0
        return rows

    def test_constant_argmax(self):
        m = self.make_passthrough_model()
        feats = self.features_for([0] * 20)
        assert decode(m, feats, 0) == "AA"

    def test_three_blocks(self):
        m = self.make_passthrough_model()
        feats = self.features_for([0] * 10 + [0] * 10 + [1] * 10)
        assert decode(m, feats, 0) == "AAB"

    def test_majority_vote(self):
        m = self.make_passthrough_model()
        feats = self.features_for([0] * 6 + [1] * 4)
        assert decode(m, feats, 0) == "A"

    def test_tie_prefers_lowest_symbol(self):
        m = self.make_passthrough_model()
        feats = self.features_for([1] * 5 + [3] * 5)
        assert decode(m, feats, 0) == "B"

    def test_matches_vote_cube_oracle_with_planted_ties(self):
        m = self.make_passthrough_model()
        rng = np.random.default_rng(67)
        splits = ([5, 5], [3, 3, 2, 2], [4, 4, 2], [2, 2, 2, 2, 2], [6, 4], [10])
        for _ in range(50):
            symbols = []
            for _ in range(int(rng.integers(1, 6))):
                counts = splits[rng.integers(len(splits))]
                voters = rng.choice(8, size=len(counts), replace=False)
                symbols.extend(rng.permutation(np.repeat(voters, counts)))
            feats = rng.normal(0, 1, size=(len(symbols), 8))
            feats[np.arange(len(symbols)), symbols] = feats.max(axis=1) + 1.0
            logits = forward(m, feats, 0)
            assert logits.argmax(axis=1).tolist() == symbols
            assert decode(m, feats, 0) == oracle_vote(logits, 8, FRAMES_PER_SYMBOL)

    def test_too_few_frames_rejected(self):
        m = self.make_passthrough_model()
        with pytest.raises(ValueError):
            decode(m, self.features_for([0] * 9), 0)

    @pytest.mark.parametrize("n_frames", [14, 15])
    def test_partial_symbol_rejected(self, n_frames):
        m = self.make_passthrough_model()
        with pytest.raises(ValueError, match=f"cannot decode {n_frames} frames"):
            decode(m, self.features_for([0] * n_frames), 0)


# what a checkpoint's meta may hold: the values JSON has, floats finite
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=10,
)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        m = init_model(TINY_MODEL, seed=19)
        path = save_checkpoint(m, {"step": 12, "note": "x"}, tmp_path / "ckpt.json")
        loaded, meta = load_checkpoint(path)
        assert meta == {"step": 12, "note": "x"}
        assert loaded.config == m.config
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(loaded, name), getattr(m, name))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        b2=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=len(SYMBOLS), max_size=len(SYMBOLS)),
        meta=st.dictionaries(st.text(), JSON_VALUES, max_size=4),
    )
    def test_reader_returns_what_writer_accepted(self, seed, b2, meta):
        m = init_model(TINY_MODEL, seed=seed)
        m.b2[:] = b2
        with tempfile.TemporaryDirectory() as tmp:
            loaded, loaded_meta = load_checkpoint(save_checkpoint(m, meta, Path(tmp) / "ckpt.json"), TINY_MODEL)
        assert loaded_meta == meta
        for name, value in m.parameters().items():
            assert same_bits(getattr(loaded, name), value)

    def test_truncated_file_rejected(self, tmp_path):
        m = init_model(TINY_MODEL, seed=19)
        path = save_checkpoint(m, {}, tmp_path / "ckpt.json")
        path.write_text(path.read_text()[: 100])
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ["[]", "3", '"params"', "null"])
    def test_non_object_top_level_rejected(self, tmp_path, text):
        path = tmp_path / "ckpt.json"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: malformed checkpoint: top level is"):
            load_checkpoint(path)

    @pytest.mark.parametrize("meta", [[1], "note", None])
    def test_non_object_meta_rejected(self, tmp_path, meta):
        import json

        path = save_checkpoint(init_model(TINY_MODEL, seed=19), {}, tmp_path / "ckpt.json")
        path.write_text(json.dumps({**json.loads(path.read_text()), "meta": meta}))
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: malformed checkpoint: meta is"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"])
    def test_non_finite_meta_rejected(self, tmp_path, value):
        # save_checkpoint refuses such a meta, so load_checkpoint must too
        import json

        path = save_checkpoint(init_model(TINY_MODEL, seed=19), {}, tmp_path / "ckpt.json")
        path.write_text(json.dumps({**json.loads(path.read_text()), "meta": {"a": value}}))
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: malformed checkpoint: "):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda payload: payload.update(extra=5), r"top level: unknown keys \['extra'\]"),
            (lambda payload: payload.pop("meta"), r"top level: missing keys \['meta'\]"),
            (lambda payload: payload.pop("params"), r"top level: missing keys \['params'\]"),
            (lambda payload: payload["model_config"].pop("context"), r"model_config: missing keys \['context'\]"),
            (lambda payload: payload["model_config"].update(width=8), r"model_config: unknown keys \['width'\]"),
            (lambda payload: payload.update(params=[1.0]), r"params is array, not an object"),
            (lambda payload: payload["params"].update(W3=[0.0]), r"params: unknown keys \['W3'\]"),
            (lambda payload: payload["params"].pop("b2"), r"params: missing keys \['b2'\]"),
            (lambda payload: payload["params"].update(b2=["0.5"] * len(SYMBOLS)), r"b2 is an array of <U3, not of numbers"),
            (lambda payload: payload["params"].update(b1=[True, False] * 2), r"b1 is an array of bool, not of numbers"),
            (lambda payload: payload.update(version=2.0), r"version must be an int, got 2\.0"),
        ],
        ids=[
            "extra-key",
            "no-meta",
            "no-params",
            "no-context",
            "extra-config",
            "params-list",
            "extra-param",
            "no-b2",
            "string-b2",
            "bool-b1",
            "float-version",
        ],
    )
    def test_only_what_the_writer_writes_accepted(self, tmp_path, edit, message):
        import json

        path = save_checkpoint(init_model(TINY_MODEL, seed=19), {}, tmp_path / "ckpt.json")
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: malformed checkpoint: {message}$"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        import json

        m = init_model(TINY_MODEL, seed=19)
        path = save_checkpoint(m, {}, tmp_path / "ckpt.json")
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_version_1_checkpoint_rejected(self, tmp_path):
        # version 1 also stored the input and output widths in the model config
        import json

        path = save_checkpoint(init_model(TINY_MODEL, seed=19), {}, tmp_path / "ckpt.json")
        payload = json.loads(path.read_text())
        payload["version"] = 1
        payload["model_config"].update(n_features=8, n_symbols=8)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: checkpoint version 1, expected 2$"):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        m = init_model(TINY_MODEL, seed=19)
        path = save_checkpoint(m, {}, tmp_path / "ckpt.json")
        text, n = re.subn(r'("W1": \[\[)[^,\]]+', r"\1NaN", path.read_text(), count=1)
        assert n == 1
        path.write_text(text)
        with pytest.raises(DataFormatError, match=r"ckpt\.json.*W1 contains non-finite values"):
            load_checkpoint(path)

    def test_non_finite_parameter_not_saved(self, tmp_path):
        m = init_model(TINY_MODEL, seed=19)
        m.b2[3] = np.inf
        path = tmp_path / "run" / "ckpt.json"
        with pytest.raises(ValueError, match=r"ckpt\.json: cannot save checkpoint: b2 contains non-finite values"):
            save_checkpoint(m, {}, path)
        assert not path.exists()

    def test_bool_dimension_rejected(self, tmp_path):
        # JSON true reads as a bool, an int subclass: unchecked, it builds a one-unit model equal to ModelConfig(hidden=1)
        import json

        config = ModelConfig(context=1, hidden=1, n_langs=3)
        path = save_checkpoint(init_model(config, seed=19), {}, tmp_path / "ckpt.json")
        payload = json.loads(path.read_text())
        payload["model_config"]["hidden"] = True
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: malformed checkpoint: hidden must be an int, got True$"):
            load_checkpoint(path, expect_config=config)

    def test_dimension_mismatch_rejected(self, tmp_path):
        m = init_model(TINY_MODEL, seed=19)
        path = save_checkpoint(m, {}, tmp_path / "ckpt.json")
        other = ModelConfig(context=1, hidden=8, n_langs=3)
        with pytest.raises(DataFormatError):
            load_checkpoint(path, expect_config=other)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_corpus):
    """The tiny corpus's featurized splits by name, loaded once: the dataset ``run_phase`` takes."""
    return {split: load_examples(tiny_corpus, split, TINY_LANGS) for split in ("pretrain", "finetune", "valid")}


class TestRunPhase:
    CFG = TrainConfig(total_steps=60, batch_size=4, eval_every=30, seed=41)

    def test_deterministic_across_runs(self, tiny_corpus, tiny_dataset):
        a = run_phase("pretrain", tiny_corpus, self.CFG, dataset=tiny_dataset)
        b = run_phase("pretrain", tiny_corpus, self.CFG, dataset=tiny_dataset)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(a.model, name), getattr(b.model, name))
        assert a.valid_losses == b.valid_losses

    def test_finetune_requires_start_model(self, tiny_corpus, tiny_dataset):
        with pytest.raises(ValueError):
            run_phase("finetune", tiny_corpus, self.CFG, dataset=tiny_dataset)

    def test_pretrain_rejects_start_model(self, tiny_corpus, tiny_dataset):
        m = init_model(ModelConfig(n_langs=3), seed=1)
        with pytest.raises(ValueError):
            run_phase("pretrain", tiny_corpus, self.CFG, start_model=m, dataset=tiny_dataset)

    def test_finetune_leaves_start_model_unchanged(self, tiny_corpus, tiny_dataset, tmp_path):
        # so two fine-tunes from one model in memory equal two from reloaded checkpoints
        pre = run_phase(
            "pretrain", tiny_corpus, TrainConfig(total_steps=20, batch_size=4, eval_every=20, seed=41), dataset=tiny_dataset
        )
        before = copy.deepcopy(pre.model)
        ckpt = save_checkpoint(pre.model, {}, tmp_path / "pre.json")
        cfg = TrainConfig(total_steps=10, batch_size=4, eval_every=10, seed=43)
        in_memory = [
            run_phase("finetune", tiny_corpus, cfg, start_model=pre.model, dataset=tiny_dataset).model for _ in range(2)
        ]
        for name, value in before.parameters().items():
            assert same_bits(getattr(pre.model, name), value), name
        for ft in in_memory:
            reloaded = run_phase(
                "finetune", tiny_corpus, cfg, start_model=load_checkpoint(ckpt)[0], dataset=tiny_dataset
            ).model
            assert ft is not pre.model
            for name, value in reloaded.parameters().items():
                assert same_bits(getattr(ft, name), value), name

    def test_language_count_mismatch_names_corpus_json(self, tiny_corpus, tiny_dataset):
        m = init_model(ModelConfig(n_langs=6), seed=1)
        message = rf"^{re.escape(str(tiny_corpus / 'corpus.json'))}: model expects 6 languages but corpus has 3$"
        with pytest.raises(DataFormatError, match=message):
            run_phase("finetune", tiny_corpus, self.CFG, start_model=m, dataset=tiny_dataset)

    def test_linear_weight_is_one_before_ramp(self, tiny_corpus, tiny_dataset, recorded):
        weighting = Weighting(
            WeightMode.LINEAR, linear=LinearSchedule(alpha_ini=4.0, alpha_fin=5.0, t_min=30, t_total=60)
        )
        cfg = TrainConfig(total_steps=60, batch_size=4, eval_every=30, seed=41, weighting=weighting)
        pre = run_phase(
            "pretrain", tiny_corpus, TrainConfig(total_steps=30, batch_size=4, eval_every=30, seed=41), dataset=tiny_dataset
        )
        recorded.weights.clear()
        run_phase("finetune", tiny_corpus, cfg, start_model=pre.model, dataset=tiny_dataset)
        assert all(w == 1.0 for t, w in recorded.weights if t < 30)
        assert any(w >= 4.0 for t, w in recorded.weights if t >= 30)

    def test_loss_decreases_on_smoke_run(self, tiny_corpus, tiny_dataset, recorded):
        cfg = TrainConfig(total_steps=200, batch_size=4, eval_every=200, seed=43)
        run_phase("pretrain", tiny_corpus, cfg, dataset=tiny_dataset)
        assert len(recorded.means) == 200
        assert recorded.means[199] < recorded.means[0]

    def test_validation_rows_cover_languages(self, tiny_corpus, tiny_dataset):
        out = run_phase("pretrain", tiny_corpus, self.CFG, dataset=tiny_dataset)
        assert list(out.valid_losses) == [30, 60]
        assert all(list(losses) == [0, 1, 2] for losses in out.valid_losses.values())

    def test_validation_losses_shape(self, tiny_dataset):
        examples = tiny_dataset["valid"]
        m = init_model(ModelConfig(n_langs=3), seed=1)
        losses = validation_losses(m, _SplitInputs(m.config, examples))
        assert sorted(losses) == [0, 1, 2]
        assert all(v > 0 for v in losses.values())

    def test_validation_losses_match_one_utterance_forward(self, tiny_dataset):
        rng = np.random.default_rng(47)
        examples = tiny_dataset["valid"]
        examples = [examples[i] for i in rng.permutation(len(examples))]
        m = init_model(ModelConfig(n_langs=3), seed=3)
        sums, counts = {}, {}
        for ex in examples:
            losses, _ = loss_mod.segment_nll(forward(m, ex.features, ex.lang), ex.labels, [len(ex.labels)])
            sums[ex.lang] = sums.get(ex.lang, 0.0) + float(losses[0])
            counts[ex.lang] = counts.get(ex.lang, 0) + 1
        want = {lang: sums[lang] / counts[lang] for lang in sums}
        # exact: NumPy sums fewer than 8 values in sequence, and the tiny corpus has 2 per language
        assert validation_losses(m, _SplitInputs(m.config, examples)) == want

    @pytest.mark.parametrize("split", ["pretrain", "valid"])
    def test_empty_preloaded_split_rejected(self, tiny_corpus, tiny_dataset, split):
        with pytest.raises(DataFormatError, match=f"preloaded split '{split}' has no utterances"):
            run_phase("pretrain", tiny_corpus, self.CFG, dataset={**tiny_dataset, split: []})

    @pytest.mark.parametrize("phase, split", [("pretrain", "pretrain"), ("finetune", "finetune"), ("finetune", "valid")])
    def test_missing_split_rejected(self, tiny_corpus, tiny_dataset, phase, split):
        # run_phase trains only on the data it is given; it reads no split from disk
        pre = init_model(ModelConfig(n_langs=3), seed=1) if phase == "finetune" else None
        data = {name: examples for name, examples in tiny_dataset.items() if name != split}
        with pytest.raises(ValueError, match=f"^dataset has no '{split}' split$"):
            run_phase(phase, tiny_corpus, self.CFG, start_model=pre, dataset=data)

    def test_matches_replay_through_train_step(self, tiny_corpus, tiny_dataset, recorded):
        # run_phase gathers each batch's rows from its split's inputs; the replay
        # draws the same batches and builds each one's rows with its own build_inputs call
        pre = run_phase(
            "pretrain", tiny_corpus, TrainConfig(total_steps=20, batch_size=4, eval_every=20, seed=41), dataset=tiny_dataset
        )
        dynamic = Weighting(WeightMode.DYNAMIC, dynamic=DynamicSchedule(alpha=1.5))
        cfg = TrainConfig(total_steps=40, batch_size=5, eval_every=10, seed=43, weighting=dynamic)
        replay = copy.deepcopy(pre.model)
        recorded.weights.clear()
        recorded.means.clear()
        out = run_phase("finetune", tiny_corpus, cfg, start_model=pre.model, dataset=tiny_dataset)
        ran = recorded.weights[:], recorded.means[:]
        recorded.weights.clear()
        recorded.means.clear()

        train, valid = tiny_dataset["finetune"], tiny_dataset["valid"]
        valid_split = _SplitInputs(replay.config, valid)
        rng = np.random.default_rng(derive_seed(cfg.seed, "batches", "finetune"))
        valid_losses = {}
        for t in range(1, cfg.total_steps + 1):
            batch = [train[i] for i in rng.integers(0, len(train), size=cfg.batch_size)]
            train_step(replay, batch, t, cfg, TINY.low_lang, example_inputs(replay.config, batch))
            if t % cfg.eval_every == 0:
                valid_losses[t] = validation_losses(replay, valid_split)
        assert any(w > 1.0 for _, w in recorded.weights)
        assert ran == (recorded.weights, recorded.means)
        assert len(recorded.means) == cfg.total_steps
        assert out.valid_losses == valid_losses
        for name, value in replay.parameters().items():
            assert np.array_equal(getattr(out.model, name), value)
