"""Tests for edit distance, WER aggregation, and the result tables."""

from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langwce.metrics import (
    EditCounts,
    build_tables,
    collect_run_wers,
    corpus_wer,
    edit_distance,
    format_percent,
    relative_reduction,
    report,
    row_mean,
    wer,
    write_eval_csv,
)
from langwce.util import DataFormatError


def levenshtein_oracle(ref, hyp):
    """Independent top-down memoized unit-cost edit distance."""

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]),
            d(i, j - 1) + 1,
            d(i - 1, j) + 1,
        )

    return d(len(ref), len(hyp))


class TestEditDistance:
    def test_identity(self):
        c = edit_distance("ABC", "ABC")
        assert (c.substitutions, c.deletions, c.insertions) == (0, 0, 0)

    def test_single_substitution(self):
        c = edit_distance(list("ABC"), list("AXC"))
        assert c.total == 1 and c.substitutions == 1

    def test_empty_hypothesis_all_deletions(self):
        c = edit_distance(list("AB"), [])
        assert c.deletions == 2 and c.total == 2

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            edit_distance([], list("AB"))

    def test_exhaustive_three_token_pairs(self):
        alphabet = "ABX"
        for rl, hl in product(range(1, 4), range(0, 4)):
            for ref in product(alphabet, repeat=rl):
                for hyp in product(alphabet, repeat=hl):
                    assert edit_distance(ref, hyp).total == levenshtein_oracle(ref, hyp)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            ref = tuple(rng.integers(0, 5, size=rng.integers(1, 11)).tolist())
            hyp = tuple(rng.integers(0, 5, size=rng.integers(0, 11)).tolist())
            c = edit_distance(ref, hyp)
            assert c.total == levenshtein_oracle(ref, hyp)
            assert c.substitutions + c.deletions <= len(ref)

    def test_total_distance_symmetric(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            a = tuple(rng.integers(0, 4, size=rng.integers(1, 9)).tolist())
            b = tuple(rng.integers(0, 4, size=rng.integers(1, 9)).tolist())
            assert edit_distance(a, b).total == edit_distance(b, a).total


tokens = st.text(alphabet="ABX", max_size=8)
non_empty = st.text(alphabet="ABX", min_size=1, max_size=8)


class TestEditDistanceProperties:
    @settings(max_examples=300, deadline=None)
    @given(a=non_empty, b=non_empty)
    def test_total_symmetric(self, a, b):
        assert edit_distance(a, b).total == edit_distance(b, a).total

    @settings(max_examples=300, deadline=None)
    @given(ref=non_empty, hyp=tokens)
    def test_total_bounded_by_lengths(self, ref, hyp):
        assert abs(len(ref) - len(hyp)) <= edit_distance(ref, hyp).total <= max(len(ref), len(hyp))

    @settings(max_examples=300, deadline=None)
    @given(ref=non_empty, hyp=tokens)
    def test_zero_exactly_when_equal(self, ref, hyp):
        assert (edit_distance(ref, hyp).total == 0) == (ref == hyp)
        assert edit_distance(ref, ref).total == 0

    @settings(max_examples=300, deadline=None)
    @given(a=non_empty, b=non_empty, c=tokens)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c).total <= edit_distance(a, b).total + edit_distance(b, c).total


class TestWer:
    def test_identity_is_zero(self):
        assert wer(edit_distance("AB", "AB")) == 0.0

    def test_one_edit_in_three(self):
        assert wer(edit_distance(list("ABC"), list("AXC"))) == pytest.approx(1 / 3)

    def test_can_exceed_one(self):
        assert wer(EditCounts(substitutions=1, deletions=0, insertions=3, ref_len=2)) == 2.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            EditCounts(substitutions=2, deletions=1, insertions=0, ref_len=2)
        with pytest.raises(ValueError):
            EditCounts(substitutions=0, deletions=0, insertions=0, ref_len=0)


class TestCorpusWer:
    def test_identical_pairs(self):
        assert corpus_wer([("AB", "AB"), ("AB", "AB")]) == 0.0

    def test_pooled_not_averaged(self):
        pairs = [(list("AB"), list("AX")), (list("CD"), list("CD"))]
        assert corpus_wer(pairs) == pytest.approx(0.25)

    def test_matches_accumulation_oracle(self):
        rng = np.random.default_rng(107)
        pairs = []
        for _ in range(50):
            ref = rng.integers(0, 5, size=rng.integers(1, 11)).tolist()
            hyp = rng.integers(0, 5, size=rng.integers(0, 11)).tolist()
            pairs.append((ref, hyp))
        edits = sum(edit_distance(r, h).total for r, h in pairs)
        tokens = sum(len(r) for r, _ in pairs)
        assert corpus_wer(pairs) == pytest.approx(edits / tokens, abs=1e-15)

    def test_order_invariant(self):
        rng = np.random.default_rng(109)
        pairs = [
            (rng.integers(0, 4, size=5).tolist(), rng.integers(0, 4, size=5).tolist())
            for _ in range(20)
        ]
        assert corpus_wer(pairs) == corpus_wer(pairs[::-1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            corpus_wer([])


class TestRelativeReduction:
    def test_known_values(self):
        assert relative_reduction(22.58, 21.07) == pytest.approx(6.69, abs=0.02)
        assert relative_reduction(41.20, 21.07) == pytest.approx(48.86, abs=0.02)
        assert relative_reduction(13.38, 13.40) == pytest.approx(-0.15, abs=0.02)

    def test_self_is_zero_and_decreasing(self):
        assert relative_reduction(5.0, 5.0) == 0.0
        vals = [relative_reduction(10.0, x) for x in np.linspace(0, 20, 50)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_non_positive_base_rejected(self):
        with pytest.raises(ValueError):
            relative_reduction(0.0, 1.0)


class TestRowMean:
    def test_known_rows(self):
        assert row_mean([41.20, 10.24, 12.79, 30.36, 11.63, 8.81]) == pytest.approx(19.17, abs=0.005)
        assert row_mean([22.58, 9.13, 10.61, 16.43, 11.02, 10.50]) == pytest.approx(13.38, abs=0.005)

    def test_singleton_identity(self):
        assert row_mean([7.25]) == 7.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            row_mean([])


# per-language WER fixture grid; L5 is the low-resource column
FIXTURE_WERS = {
    "WS": {"L5": 41.20, "L0": 10.24, "L1": 12.79, "L2": 30.36, "L3": 11.63, "L4": 8.81},
    "WS-FT": {"L5": 22.58, "L0": 9.13, "L1": 10.61, "L2": 16.43, "L3": 11.02, "L4": 10.50},
    "WS-FT-LP-WCE": {"L5": 21.43, "L0": 10.00, "L1": 10.87, "L2": 16.61, "L3": 11.19, "L4": 10.31},
    "WS-FT-GL+": {"L5": 21.75, "L0": 9.18, "L1": 10.44, "L2": 15.88, "L3": 10.56, "L4": 10.28},
    "WS-FT-LP-WCE-GL+": {"L5": 21.07, "L0": 9.05, "L1": 10.41, "L2": 16.15, "L3": 11.21, "L4": 10.87},
    "WS-FT-DA-WCE-GL+": {"L5": 21.58, "L0": 9.17, "L1": 10.23, "L2": 15.85, "L3": 10.62, "L4": 10.13},
}
RUN_ORDER = ["WS", "WS-FT", "WS-FT-LP-WCE", "WS-FT-GL+", "WS-FT-LP-WCE-GL+", "WS-FT-DA-WCE-GL+"]


def write_fixture_runs(runs_dir, wers=FIXTURE_WERS):
    """Materialize eval CSVs whose pooled WERs equal the fixture percentages exactly."""
    for run, by_lang in wers.items():
        for lang, pct in by_lang.items():
            # pct has two decimals, so pct * 1000 is an integer count of edits per 1e5 tokens
            edits = round(pct * 1000)
            write_eval_csv(runs_dir / run / "eval" / f"{lang}.csv", run, lang, 200, edits, 100000)


class TestTables:
    def test_fixture_grid_reproduced(self, tmp_path):
        write_fixture_runs(tmp_path)
        run_wers = {r: collect_run_wers(tmp_path / r) for r in FIXTURE_WERS}
        tables = build_tables(run_wers, low_lang="L5", baseline="WS-FT", run_order=RUN_ORDER, pretrain_run="WS")
        assert tables.languages[0] == "L5"
        means = {name: mean for name, _, mean in tables.table1}
        # the last row's per-language cells average to 12.93 even though the
        # reference grid prints 12.94; everything else matches exactly
        assert means == pytest.approx(
            {"WS": 19.17, "WS-FT": 13.38, "WS-FT-LP-WCE": 13.40, "WS-FT-GL+": 13.02,
             "WS-FT-LP-WCE-GL+": 13.13, "WS-FT-DA-WCE-GL+": 12.93},
            abs=0.005,
        )
        low_red = {name: r for name, r, _ in tables.table2}
        mean_red = {name: r for name, _, r in tables.table2}
        assert "WS" not in low_red
        assert low_red == pytest.approx(
            {"WS-FT": 0.0, "WS-FT-LP-WCE": 5.09, "WS-FT-GL+": 3.67,
             "WS-FT-LP-WCE-GL+": 6.69, "WS-FT-DA-WCE-GL+": 4.43},
            abs=0.02,
        )
        assert mean_red == pytest.approx(
            {"WS-FT": 0.0, "WS-FT-LP-WCE": -0.15, "WS-FT-GL+": 2.69,
             "WS-FT-LP-WCE-GL+": 1.87,
             "WS-FT-DA-WCE-GL+": relative_reduction(13.38, 12.93)},
            abs=0.02,
        )

    def test_baseline_only_runs_reduce_to_zero(self, tmp_path):
        write_fixture_runs(tmp_path, {"WS-FT": FIXTURE_WERS["WS-FT"]})
        out = report(tmp_path, tmp_path / "out", baseline="WS-FT", low_lang="L5")
        rows = (out["table2"]).read_text().splitlines()
        assert rows[1].split(",")[1:] == ["0.00", "0.00"]

    def test_rendered_tables_deterministic(self, tmp_path):
        write_fixture_runs(tmp_path)
        a = report(tmp_path, tmp_path / "a", baseline="WS-FT", low_lang="L5", run_order=RUN_ORDER)
        b = report(tmp_path, tmp_path / "b", baseline="WS-FT", low_lang="L5", run_order=RUN_ORDER)
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_missing_baseline_rejected(self, tmp_path):
        write_fixture_runs(tmp_path, {"WS": FIXTURE_WERS["WS"]})
        with pytest.raises(DataFormatError):
            report(tmp_path, tmp_path / "out", baseline="WS-FT", low_lang="L5")

    def test_percent_formatting_two_decimals(self):
        assert format_percent(12.935001) == "12.94"
        assert format_percent(-0.149) == "-0.15"
