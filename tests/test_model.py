"""Tests for the frame classifier: forward, gradients, decoding, checkpoints, phases."""

import copy
import math
import re

import numpy as np
import pytest

from conftest import TINY
from langwce import loss as loss_mod
from langwce.loss import LanguageWeights
from langwce.model import (
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
    utterance_loss,
    validation_losses,
)
from langwce.schedule import DynamicSchedule, LinearSchedule, WeightMode, Weighting
from langwce.synthlang import FrameExample
from langwce.util import DataFormatError, DivergenceError

TINY_MODEL = ModelConfig(n_features=8, context=1, hidden=4, n_symbols=8, n_langs=3)


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
        assert np.abs(m.W2).max() <= math.sqrt(6 / (TINY_MODEL.hidden + TINY_MODEL.n_symbols))


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
            for v in range(m.config.n_symbols):
                expected = sum(hidden[h] * m.W2[h, v] for h in range(m.config.hidden)) + m.b2[v]
                assert got[f, v] == pytest.approx(expected, abs=1e-12)

    def test_edge_frames_replicate_boundary(self):
        feats = np.arange(16, dtype=float).reshape(2, 8)
        x = build_inputs(TINY_MODEL, feats, 0)
        # frame 0 context: [f0, f0, f1]
        np.testing.assert_array_equal(x[0, :8], feats[0])
        np.testing.assert_array_equal(x[0, 8:16], feats[0])
        np.testing.assert_array_equal(x[0, 16:24], feats[1])


def weighted_objective(model, batch, weights):
    """The loss train_step differentiates, with the step weight held fixed."""
    total = 0.0
    for ex in batch:
        total += weights.get(ex.lang) * utterance_loss(model, ex)
    return total / len(batch)


def analytic_gradients(model, batch, t, config, low_lang):
    """Recover train_step's gradient from the SGD update on a copy."""
    probe = copy.deepcopy(model)
    bl = train_step(probe, batch, t, config, low_lang)
    grads = {
        name: (getattr(model, name) - getattr(probe, name)) / config.learning_rate
        for name in ("W1", "b1", "W2", "b2")
    }
    return grads, bl


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


WEIGHTINGS = {
    "none": Weighting(WeightMode.NONE),
    "constant": Weighting(WeightMode.CONSTANT, constant=2.5),
    "linear": Weighting(WeightMode.LINEAR, linear=LinearSchedule(2.0, 5.0, t_min=3, t_total=100)),
    "dynamic": Weighting(WeightMode.DYNAMIC, dynamic=DynamicSchedule(alpha=1.5)),
}


class TestTrainStep:
    def test_none_equals_constant_one(self):
        rng = np.random.default_rng(21)
        batch = fake_batch(rng, [0, 1, 2, 2])
        cfg_a = TrainConfig(total_steps=10, eval_every=10, batch_size=2, weighting=Weighting(WeightMode.NONE))
        cfg_b = TrainConfig(
            total_steps=10, eval_every=10, batch_size=2, weighting=Weighting(WeightMode.CONSTANT, constant=1.0)
        )
        m_a = init_model(TINY_MODEL, seed=3)
        m_b = init_model(TINY_MODEL, seed=3)
        for t in range(1, 4):
            train_step(m_a, batch, t, cfg_a, low_lang=2)
            train_step(m_b, batch, t, cfg_b, low_lang=2)
        for name in ("W1", "b1", "W2", "b2"):
            np.testing.assert_allclose(getattr(m_a, name), getattr(m_b, name), rtol=0, atol=1e-12)

    def test_batch_without_low_language_is_unweighted(self):
        rng = np.random.default_rng(22)
        batch = fake_batch(rng, [0, 1, 0])
        cfg = TrainConfig(
            total_steps=10, eval_every=10, batch_size=2,
            weighting=Weighting(WeightMode.DYNAMIC, dynamic=DynamicSchedule(alpha=1.5)),
        )
        m = init_model(TINY_MODEL, seed=5)
        bl = train_step(m, batch, 1, cfg, low_lang=2)
        assert bl.applied_weight == 1.0

    def test_per_sentence_matches_loss_module(self):
        rng = np.random.default_rng(23)
        batch = fake_batch(rng, [0, 1, 2])
        m = init_model(TINY_MODEL, seed=7)
        frozen = copy.deepcopy(m)
        cfg = TrainConfig(total_steps=10, eval_every=10, batch_size=2,
                          weighting=Weighting(WeightMode.CONSTANT, constant=3.0))
        bl = train_step(m, batch, 1, cfg, low_lang=2)
        # straight-line reference: per-frame log-softmax, mean over frames,
        # weight 3 on language 2, divided by the batch size
        per_sentence = []
        for ex in batch:
            logits = forward(frozen, ex.features, ex.lang)
            frame_nll = [
                math.log(sum(math.exp(z - max(row)) for z in row)) - (row[label] - max(row))
                for row, label in zip(logits.tolist(), ex.labels)
            ]
            per_sentence.append(sum(frame_nll) / len(frame_nll))
        weighted = sum((3.0 if ex.lang == 2 else 1.0) * l for ex, l in zip(batch, per_sentence)) / len(batch)
        np.testing.assert_allclose(bl.per_sentence, per_sentence, rtol=0, atol=1e-12)
        assert bl.weighted_mean == pytest.approx(weighted, abs=1e-12)
        assert bl.applied_weight == 3.0

    @pytest.mark.parametrize("mode", sorted(WEIGHTINGS))
    def test_gradients_match_finite_differences(self, mode):
        rng = np.random.default_rng(29)
        for _ in range(3):
            batch = fake_batch(rng, [0, 2] if mode == "dynamic" else [int(rng.integers(0, 3)) for _ in range(2)])
            cfg = TrainConfig(total_steps=100, eval_every=100, batch_size=2, weighting=WEIGHTINGS[mode])
            m = init_model(TINY_MODEL, seed=int(rng.integers(1e6)))
            analytic, bl = analytic_gradients(m, batch, t=5, config=cfg, low_lang=2)
            numeric = fd_gradients(m, batch, LanguageWeights({2: bl.applied_weight}))
            assert max_rel_err(analytic, numeric) < 1e-4

    def test_single_low_utterance_update_scales_with_weight(self):
        # the logit gradient train_step backpropagates is exactly linear in
        # the language weight; power-of-two weights keep the scaling bit-exact
        rng = np.random.default_rng(31)
        ex = fake_example(rng, lang=2)
        base = init_model(TINY_MODEL, seed=11)
        sizes = [len(ex.labels)]
        _, probs = loss_mod.segment_nll(forward(base, ex.features, ex.lang), ex.labels, sizes)
        g1 = loss_mod.logit_gradient(probs, ex.labels, sizes, [2], LanguageWeights({2: 1.0}))
        for w in (0.25, 2.0, 8.0):
            g = loss_mod.logit_gradient(probs, ex.labels, sizes, [2], LanguageWeights({2: w}))
            assert np.array_equal(g, w * g1)

    def test_divergence_raises(self):
        rng = np.random.default_rng(33)
        batch = fake_batch(rng, [0, 1])
        cfg = TrainConfig(total_steps=100, eval_every=100, batch_size=2, learning_rate=1e307)
        m = init_model(TINY_MODEL, seed=13)
        with pytest.raises(DivergenceError):
            for t in range(1, 50):
                train_step(m, batch, t, cfg, low_lang=2)

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
            train_step(m, batch, t, cfg, low_lang=2)
        bad = copy.deepcopy(batch)
        bad[1].features[3, 2] = np.nan
        before = copy.deepcopy(m)
        with pytest.raises(DivergenceError, match=r"step 3: non-finite loss"):
            train_step(m, bad, 3, cfg, low_lang=2)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(m, name), getattr(before, name))

    def test_large_weight_does_not_trip_explosion_bound(self):
        # weight 200 lifts the weighted loss far past the bound while the
        # unweighted losses stay small: the bound must read the unweighted ones
        rng = np.random.default_rng(41)
        batch = fake_batch(rng, [0, 2, 2, 2])
        cfg = TrainConfig(total_steps=100, eval_every=100, batch_size=2,
                          weighting=Weighting(WeightMode.CONSTANT, constant=200.0))
        m = init_model(TINY_MODEL, seed=17)
        bound = LOSS_EXPLOSION_FACTOR * math.log(TINY_MODEL.n_symbols)
        weighted = [train_step(m, batch, t, cfg, low_lang=2).weighted_mean for t in range(1, 51)]
        assert max(weighted) > bound

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_update_raises_and_keeps_model(self):
        rng = np.random.default_rng(43)
        batch = fake_batch(rng, [0, 2])
        cfg = TrainConfig(total_steps=10, eval_every=10, batch_size=2, learning_rate=1e308,
                          weighting=Weighting(WeightMode.CONSTANT, constant=1e3))
        m = init_model(TINY_MODEL, seed=19)
        before = copy.deepcopy(m)
        with pytest.raises(DivergenceError, match=r"step 1: non-finite parameter"):
            train_step(m, batch, 1, cfg, low_lang=2)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(m, name), getattr(before, name))

    def test_overfits_single_batch(self):
        rng = np.random.default_rng(35)
        batch = [fake_example(rng, lang, n_frames=20) for lang in (0, 1, 2, 2)]
        cfg = TrainConfig(total_steps=500, eval_every=500, batch_size=4)
        m = init_model(ModelConfig(n_langs=3), seed=17)
        final = None
        for t in range(1, 501):
            final = train_step(m, batch, t, cfg, low_lang=2)
        assert final.weighted_mean < 0.05


class TestDecode:
    def make_passthrough_model(self):
        # argmax(logits) == argmax(features): identity-ish weights, no context
        cfg = ModelConfig(n_features=8, context=0, hidden=8, n_symbols=8, n_langs=2)
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

    def test_too_few_frames_rejected(self):
        m = self.make_passthrough_model()
        with pytest.raises(ValueError):
            decode(m, self.features_for([0] * 9), 0)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        m = init_model(TINY_MODEL, seed=19)
        path = save_checkpoint(m, {"step": 12, "note": "x"}, tmp_path / "ckpt.json")
        loaded, meta = load_checkpoint(path)
        assert meta == {"step": 12, "note": "x"}
        assert loaded.config == m.config
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(loaded, name), getattr(m, name))

    def test_truncated_file_rejected(self, tmp_path):
        m = init_model(TINY_MODEL, seed=19)
        path = save_checkpoint(m, {}, tmp_path / "ckpt.json")
        path.write_text(path.read_text()[: 100])
        with pytest.raises(DataFormatError):
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

    def test_dimension_mismatch_rejected(self, tmp_path):
        m = init_model(TINY_MODEL, seed=19)
        path = save_checkpoint(m, {}, tmp_path / "ckpt.json")
        other = ModelConfig(n_features=8, context=1, hidden=8, n_symbols=8, n_langs=3)
        with pytest.raises(DataFormatError):
            load_checkpoint(path, expect_config=other)


class TestRunPhase:
    CFG = TrainConfig(total_steps=60, batch_size=4, eval_every=30, seed=41)

    def test_deterministic_across_runs(self, tiny_corpus):
        a = run_phase("pretrain", tiny_corpus, self.CFG)
        b = run_phase("pretrain", tiny_corpus, self.CFG)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(a.model, name), getattr(b.model, name))
        assert a.metrics == b.metrics

    def test_finetune_requires_start_model(self, tiny_corpus):
        with pytest.raises(ValueError):
            run_phase("finetune", tiny_corpus, self.CFG)

    def test_pretrain_rejects_start_model(self, tiny_corpus):
        m = init_model(ModelConfig(n_langs=3), seed=1)
        with pytest.raises(ValueError):
            run_phase("pretrain", tiny_corpus, self.CFG, start_model=m)

    def test_linear_weight_is_one_before_ramp(self, tiny_corpus):
        weighting = Weighting(
            WeightMode.LINEAR, linear=LinearSchedule(alpha_ini=4.0, alpha_fin=5.0, t_min=30, t_total=60)
        )
        cfg = TrainConfig(total_steps=60, batch_size=4, eval_every=30, seed=41, weighting=weighting)
        pre = run_phase("pretrain", tiny_corpus, TrainConfig(total_steps=30, batch_size=4, eval_every=30, seed=41))
        out = run_phase("finetune", tiny_corpus, cfg, start_model=pre.model)
        train_rows = [r for r in out.metrics if r["split"] == "train"]
        assert all(r["applied_weight"] == 1.0 for r in train_rows if r["step"] < 30)
        assert any(r["applied_weight"] >= 4.0 for r in train_rows if r["step"] >= 30)

    def test_loss_decreases_on_smoke_run(self, tiny_corpus):
        cfg = TrainConfig(total_steps=200, batch_size=4, eval_every=200, seed=43)
        out = run_phase("pretrain", tiny_corpus, cfg)
        train = [r["loss"] for r in out.metrics if r["split"] == "train"]
        assert train[199] < train[0]

    def test_validation_rows_cover_languages(self, tiny_corpus):
        out = run_phase("pretrain", tiny_corpus, self.CFG)
        valid_rows = [r for r in out.metrics if r["split"] == "valid"]
        assert {r["language"] for r in valid_rows} == {"L0", "L1", "L2"}
        assert {r["step"] for r in valid_rows} == {30, 60}

    def test_validation_losses_shape(self, tiny_corpus):
        from langwce.synthlang import load_examples

        examples = load_examples(tiny_corpus, "valid")
        m = init_model(ModelConfig(n_langs=3), seed=1)
        losses = validation_losses(m, examples)
        assert sorted(losses) == [0, 1, 2]
        assert all(v > 0 for v in losses.values())
