"""Tests for the loss kernel, language weighting, and the hand-derived logit gradient."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_segment_nll, same_bits
from langwce.loss import (
    combine_sentence_losses,
    group_means,
    logit_gradient,
    segment_nll,
)


def nll(logits, labels):
    """Loss of a single utterance through the kernel."""
    logits = np.asarray(logits, dtype=np.float64)
    losses, _ = segment_nll(logits, np.asarray(labels), [len(labels)])
    return float(losses[0])


def random_batch(rng, n_sentences=4, n_langs=2, max_t=8, max_v=10):
    """(logits [N x V], labels [N], sizes [B], languages [B]) for a random batch."""
    v = int(rng.integers(2, max_v + 1))
    sizes = rng.integers(1, max_t + 1, size=n_sentences)
    logits = rng.uniform(-2.0, 2.0, size=(int(sizes.sum()), v))
    labels = rng.integers(0, v, size=int(sizes.sum()))
    languages = [int(k) for k in rng.integers(0, n_langs, size=n_sentences)]
    return logits, labels, sizes, languages


def utt_weights(languages, weights):
    """Per-utterance weights from a {language: weight} map; unlisted languages weigh 1."""
    return np.array([weights.get(k, 1.0) for k in languages])


def weighted_loss(logits, labels, sizes, languages, weights):
    losses, _ = segment_nll(logits, labels, sizes)
    return combine_sentence_losses(losses.tolist(), utt_weights(languages, weights))


class TestLogSoftmax:
    def test_two_way_symmetry(self):
        losses, probs = segment_nll(np.zeros((1, 2)), np.array([0]), [1])
        assert losses[0] == pytest.approx(math.log(2), abs=1e-15)
        np.testing.assert_array_equal(probs, [[0.5, 0.5]])

    def test_shift_invariance(self):
        for c in (-7.5, 0.0, 3.25, 1e6):
            assert nll(np.full((3, 4), c), [0, 1, 3]) == pytest.approx(math.log(4), abs=1e-9)

    def test_extreme_logits_do_not_overflow(self):
        losses, probs = segment_nll(np.array([[1000.0, 0.0], [1000.0, 0.0]]), np.array([0, 1]), [1, 1])
        assert np.all(np.isfinite(losses)) and np.all(np.isfinite(probs))
        assert losses[0] == pytest.approx(0.0, abs=1e-12)
        assert losses[1] == pytest.approx(1000.0, abs=1e-9)

    def test_exponentials_form_distribution(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            logits = rng.uniform(-50, 50, size=(3, int(rng.integers(2, 12))))
            _, probs = segment_nll(logits, np.zeros(3, dtype=int), [3])
            assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


class TestSentenceCrossEntropy:
    def test_uniform_logits_mean(self):
        assert nll(np.zeros((3, 4)), [0, 1, 2]) == pytest.approx(math.log(4), abs=1e-12)

    def test_matches_extended_precision_formula(self):
        # one frame with logits [2, 0, 0] and true label 0, then one with
        # logits [0, 1, -1] and label 2: loss = mean of -log softmax
        logits = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, -1.0]])
        with mpmath.workdps(50):
            e = mpmath.e
            first = -mpmath.log(e**2 / (e**2 + 2))
            second = -mpmath.log(e**-1 / (1 + e + e**-1))
            expected = [first, (first + second) / 2]
        losses, _ = segment_nll(np.concatenate([logits[:1], logits]), np.array([0, 0, 2]), [1, 2])
        assert losses[0] == pytest.approx(float(expected[0]), abs=1e-14)
        assert losses[1] == pytest.approx(float(expected[1]), abs=1e-14)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            logits, labels, sizes, _ = random_batch(rng, n_sentences=3)
            assert np.all(segment_nll(logits, labels, sizes)[0] >= 0.0)

    def test_bad_segmentation_rejected(self):
        logits, labels = np.zeros((4, 3)), np.array([0, 1, 2, 0])
        for sizes in ([1, 2], [5], [4, 0]):
            with pytest.raises(ValueError, match="do not cut 4 frames"):
                segment_nll(logits, labels, sizes)
        with pytest.raises(ValueError, match="out of range"):
            segment_nll(logits, np.array([0, 1, 3, 0]), [4])


class TestGroupMeans:
    def test_two_languages(self):
        assert group_means(np.array([1.0, 3.0, 2.0]), [0, 0, 1]) == {0: 2.0, 1: 2.0}

    def test_single_pair_identity(self):
        assert group_means(np.array([0.125]), [5]) == {5: 0.125}

    def test_matches_grouping_oracle(self):
        rng = np.random.default_rng(3)
        pairs = [(int(rng.integers(0, 3)), float(rng.uniform(0, 5))) for _ in range(10)]
        got = group_means(np.array([v for _, v in pairs]), [k for k, _ in pairs])
        for lang in {k for k, _ in pairs}:
            vals = [v for k, v in pairs if k == lang]
            assert got[lang] == pytest.approx(sum(vals) / len(vals), abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="got 0 and 0"):
            group_means(np.array([]), [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one group label per loss.*got 3 and 2"):
            group_means(np.array([1.0, 2.0, 3.0]), [0, 1])

    @pytest.mark.parametrize("n", [1, 7, 8, 16, 120])
    def test_equals_masked_means_bit_for_bit_in_ascending_order(self, n):
        # the masked mean is what train_step fed the scheduler before group_means;
        # from 8 values NumPy sums pairwise, so a running sum would differ in the last bit
        rng = np.random.default_rng(n)
        losses = rng.uniform(0, 5, size=n)
        for groups in (rng.integers(0, 6, size=n), rng.random(n) < 0.3):
            got = group_means(losses, groups)
            assert list(got) == sorted(set(groups.tolist()))
            for g, mean in got.items():
                assert type(mean) is float
                assert same_bits(np.float64(mean), losses[groups == g].mean())


class TestWeightedBatchLoss:
    def test_unit_weights_reduce_to_plain_mean(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            batch = random_batch(rng, n_sentences=int(rng.integers(1, 7)), n_langs=3)
            losses, _ = segment_nll(*batch[:3])
            assert abs(weighted_loss(*batch, {}) - np.mean(losses)) < 1e-12

    def test_single_sentence_weight_three(self):
        # two-way logits [ln p, ln(1-p)] with p = e^-0.5 give loss exactly 0.5
        p = math.exp(-0.5)
        logits = np.array([[math.log(p), math.log(1 - p)]])
        assert weighted_loss(logits, np.array([0]), [1], [4], {4: 3.0}) == pytest.approx(1.5, abs=1e-12)
        assert nll(logits, [0]) == pytest.approx(0.5, abs=1e-12)

    def test_matches_accumulation_oracle(self):
        rng = np.random.default_rng(17)
        weights = {0: 2.5, 1: 1.25}
        logits, labels, sizes, languages = random_batch(rng, n_sentences=4, n_langs=2)
        out = weighted_loss(logits, labels, sizes, languages, weights)
        acc, start = 0.0, 0
        for size, lang in zip(sizes, languages):
            acc += weights[lang] * nll(logits[start : start + size], labels[start : start + size]) / len(sizes)
            start += size
        assert out == pytest.approx(acc, abs=1e-12)

    def test_linear_in_each_language_weight(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            logits, labels, sizes, languages = random_batch(rng, n_sentences=5, n_langs=3)
            lang = int(rng.integers(0, 3))
            w, c = 1.5, 4.0
            base = weighted_loss(logits, labels, sizes, languages, {lang: w})
            scaled = weighted_loss(logits, labels, sizes, languages, {lang: c * w})
            losses, _ = segment_nll(logits, labels, sizes)
            contrib = sum(l for l, k in zip(losses, languages) if k == lang) / len(sizes)
            assert scaled - base == pytest.approx((c - 1) * w * contrib, abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            combine_sentence_losses([], [])


def finite_difference_gradient(logits, labels, sizes, languages, weights, h=1e-5):
    """Central finite differences of the weighted batch mean over every logit entry."""
    g = np.zeros_like(logits)
    for idx in np.ndindex(logits.shape):
        up, down = logits.copy(), logits.copy()
        up[idx] += h
        down[idx] -= h
        g[idx] = (
            weighted_loss(up, labels, sizes, languages, weights) - weighted_loss(down, labels, sizes, languages, weights)
        ) / (2 * h)
    return g


def gradient(logits, labels, sizes, languages, weights):
    _, probs = segment_nll(logits, labels, sizes)
    return logit_gradient(probs, labels, sizes, utt_weights(languages, weights))


class TestLossGradient:
    def test_confident_prediction_has_tiny_gradient(self):
        g = gradient(np.array([[30.0, 0.0, 0.0]]), np.array([0]), [1], [0], {})
        assert np.abs(g).max() < 1e-6

    def test_gradient_linear_in_weight(self):
        rng = np.random.default_rng(31)
        logits, labels, sizes, languages = random_batch(rng, n_sentences=3, n_langs=2)
        g1 = gradient(logits, labels, sizes, languages, {0: 1.5})
        g2 = gradient(logits, labels, sizes, languages, {0: 3.0})
        factor = np.repeat([2.0 if k == 0 else 1.0 for k in languages], sizes)[:, None]
        np.testing.assert_allclose(g2, factor * g1, rtol=0, atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            batch = random_batch(rng, n_sentences=3, n_langs=2, max_t=8, max_v=10)
            weights = {0: float(rng.uniform(1, 5))}
            analytic = gradient(*batch, weights)
            numeric = finite_difference_gradient(*batch, weights)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            assert float((np.abs(analytic - numeric) / denom).max()) < 1e-4

    def test_scored_rows_sum_to_zero(self):
        rng = np.random.default_rng(41)
        g = gradient(*random_batch(rng, n_sentences=4, n_langs=2), {1: 2.0})
        assert np.abs(g.sum(axis=1)).max() < 1e-12

    def test_probs_left_unchanged(self):
        rng = np.random.default_rng(43)
        logits, labels, sizes, languages = random_batch(rng)
        _, probs = segment_nll(logits, labels, sizes)
        before = probs.copy()
        logit_gradient(probs, labels, sizes, np.ones(len(sizes)))
        assert np.array_equal(probs, before)


# ---------------------------------------------------------------------------
# properties over random batches

finite_logit = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def utterances(draw, max_utts=6):
    """A list of (logits [F x V], labels [F], language) sharing one V."""
    v = draw(st.integers(2, 8))
    out = []
    for _ in range(draw(st.integers(1, max_utts))):
        f = draw(st.integers(1, 6))
        logits = np.array(draw(st.lists(finite_logit, min_size=f * v, max_size=f * v))).reshape(f, v)
        labels = np.array(draw(st.lists(st.integers(0, v - 1), min_size=f, max_size=f)))
        out.append((logits, labels, draw(st.integers(0, 2))))
    return out


def stack(utts):
    logits = np.concatenate([u[0] for u in utts])
    labels = np.concatenate([u[1] for u in utts])
    return logits, labels, [len(u[1]) for u in utts], [u[2] for u in utts]


class TestKernelProperties:
    @settings(max_examples=200, deadline=None)
    @given(utts=utterances(), data=st.data())
    def test_loss_independent_of_batch_and_order(self, utts, data):
        order = data.draw(st.permutations(range(len(utts))))
        batched, _ = segment_nll(*stack([utts[i] for i in order])[:3])
        for pos, i in enumerate(order):
            assert batched[pos] == nll(utts[i][0], utts[i][1])

    @settings(max_examples=200, deadline=None)
    @given(utts=utterances(), weight=st.floats(1.0, 50.0))
    def test_gradient_rows_sum_to_zero(self, utts, weight):
        g = gradient(*stack(utts), {0: weight})
        assert np.abs(g.sum(axis=1)).max() <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(utts=utterances())
    def test_losses_non_negative(self, utts):
        losses, _ = segment_nll(*stack(utts)[:3])
        assert np.all(losses >= 0.0)


special_logit = st.sampled_from([0.0, -0.0, 1e6, -1e6, math.nan])


@st.composite
def kernel_batches(draw):
    """(logits, labels, sizes): 1-5 utterances of 1-6 frames over 1-10 classes, with ±0, ±1e6 and NaN logits mixed in."""
    v = draw(st.integers(1, 10))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    n = sum(sizes)
    values = st.one_of(finite_logit, special_logit)
    logits = np.array(draw(st.lists(values, min_size=n * v, max_size=n * v))).reshape(n, v)
    labels = np.array(draw(st.lists(st.integers(0, v - 1), min_size=n, max_size=n)))
    return logits, labels, sizes


class TestSegmentNllOracle:
    @settings(max_examples=300, deadline=None)
    @given(batch=kernel_batches())
    def test_bit_equal_to_row_wise_oracle(self, batch):
        losses, probs = segment_nll(*batch)
        want_losses, want_probs = oracle_segment_nll(*batch)
        assert same_bits(losses, want_losses)
        assert same_bits(probs, want_probs)
