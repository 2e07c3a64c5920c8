"""Tests for edit distance, WER aggregation, and the result tables."""

import hashlib
import re
import tempfile
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import oracle_edit_distance
from langwce.metrics import (
    EVAL_FIELDS,
    build_tables,
    collect_run_wers,
    corpus_wer,
    edit_distance,
    format_percent,
    read_eval_csv,
    relative_reduction,
    report,
    row_mean,
    write_eval_csv,
)
from langwce.util import DataFormatError


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("ABC", "ABC") == 0

    def test_single_substitution(self):
        assert edit_distance(list("ABC"), list("AXC")) == 1

    def test_empty_hypothesis_all_deletions(self):
        assert edit_distance(list("AB"), []) == 2

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            edit_distance([], list("AB"))

    def test_exhaustive_three_token_pairs(self):
        alphabet = "ABX"
        for rl, hl in product(range(1, 4), range(0, 4)):
            for ref in product(alphabet, repeat=rl):
                for hyp in product(alphabet, repeat=hl):
                    assert edit_distance(ref, hyp) == oracle_edit_distance(ref, hyp)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            ref = tuple(rng.integers(0, 5, size=rng.integers(1, 11)).tolist())
            hyp = tuple(rng.integers(0, 5, size=rng.integers(0, 11)).tolist())
            assert edit_distance(ref, hyp) == oracle_edit_distance(ref, hyp)

    def test_total_distance_symmetric(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            a = tuple(rng.integers(0, 4, size=rng.integers(1, 9)).tolist())
            b = tuple(rng.integers(0, 4, size=rng.integers(1, 9)).tolist())
            assert edit_distance(a, b) == edit_distance(b, a)


tokens = st.text(alphabet="ABX", max_size=8)
non_empty = st.text(alphabet="ABX", min_size=1, max_size=8)


class TestEditDistanceProperties:
    @settings(max_examples=300, deadline=None)
    @given(a=non_empty, b=non_empty)
    def test_total_symmetric(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @settings(max_examples=300, deadline=None)
    @given(ref=non_empty, hyp=tokens)
    def test_total_bounded_by_lengths(self, ref, hyp):
        assert abs(len(ref) - len(hyp)) <= edit_distance(ref, hyp) <= max(len(ref), len(hyp))

    @settings(max_examples=300, deadline=None)
    @given(ref=non_empty, hyp=tokens)
    def test_zero_exactly_when_equal(self, ref, hyp):
        assert (edit_distance(ref, hyp) == 0) == (ref == hyp)
        assert edit_distance(ref, ref) == 0

    @settings(max_examples=300, deadline=None)
    @given(a=non_empty, b=non_empty, c=tokens)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @settings(max_examples=500, deadline=None)
    @given(ref=st.text(alphabet="ABX", min_size=1, max_size=12), hyp=st.text(alphabet="ABX", max_size=12))
    def test_split_matches_three_way_min_oracle(self, ref, hyp):
        assert edit_distance(ref, hyp) == oracle_edit_distance(ref, hyp)

    @settings(max_examples=500, deadline=None)
    @given(
        prefix=st.text(alphabet="ABX", max_size=7),
        ref_mid=st.text(alphabet="ABX", max_size=7),
        hyp_mid=st.text(alphabet="ABX", max_size=7),
        suffix=st.text(alphabet="ABX", max_size=6),
    )
    def test_shared_ends_match_oracle(self, prefix, ref_mid, hyp_mid, suffix):
        ref, hyp = prefix + ref_mid + suffix, prefix + hyp_mid + suffix
        assume(ref)
        assert edit_distance(ref, hyp) == oracle_edit_distance(ref, hyp)
        assert edit_distance(list(ref), list(hyp)) == oracle_edit_distance(ref, hyp)


class TestCorpusWer:
    def test_identical_pairs(self):
        assert corpus_wer([("AB", "AB"), ("AB", "AB")]) == 0.0

    def test_can_exceed_one(self):
        # one substitution and three insertions against two reference tokens
        assert corpus_wer([("AB", "AXXXX")]) == 2.0

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
        edits = sum(edit_distance(r, h) for r, h in pairs)
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


class TestEvalCsv:
    # case -> (the CSV's data row, what the error says)
    BAD_ROWS = {
        "non-integer-count": ("WS,L0,4,20,2.5", "invalid literal for int"),
        "no-reference-tokens": ("WS,L0,4,0,0", "total_ref_tokens must be >= 1, got 0"),
        "short-row": ("WS,L0,4", "int\\(\\) argument must be"),
        "long-row": ("WS,L0,4,20,3,15.0", "expected one evaluation row"),
        "negative-edits": ("WS,L0,4,10,-3", "counts must be non-negative, got n_utts=4, total_edits=-3"),
        "negative-utterances": ("WS,L0,-1,10,3", "counts must be non-negative, got n_utts=-1, total_edits=3"),
        "underscored-count": ("WS,L0,4,1_0,3", "total_ref_tokens '1_0' is not written as a plain decimal"),
        "padded-count": ("WS,L0, 4,10,3", "n_utts ' 4' is not written as a plain decimal"),
        "signed-count": ("WS,L0,4,10,+3", "total_edits '\\+3' is not written as a plain decimal"),
    }
    # the cases the writer can be asked for: all three counts are ints, and it refuses them with the reader's message
    WRITER_CASES = ["negative-edits", "negative-utterances", "no-reference-tokens"]

    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_bad_row_names_csv(self, tmp_path, case):
        row, message = self.BAD_ROWS[case]
        path = tmp_path / "L0.csv"
        path.write_text(",".join(EVAL_FIELDS) + "\n" + row + "\n")
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: .*{message}"):
            read_eval_csv(path)

    def test_counts_stored_and_wer_derived_on_read(self, tmp_path):
        path = tmp_path / "L0.csv"
        write_eval_csv(path, "WS", "L0", 4, 5, 20)
        assert path.read_bytes() == b"run,language,n_utts,total_ref_tokens,total_edits\r\nWS,L0,4,20,5\r\n"
        assert read_eval_csv(path) == ("WS", "L0", 25.0)

    def test_wer_percent_column_rejected(self, tmp_path):
        path = tmp_path / "L0.csv"
        path.write_text(",".join(EVAL_FIELDS) + ",wer_percent\nWS,L0,4,20,5,25.0\n")
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: expected one evaluation row"):
            read_eval_csv(path)

    @pytest.mark.parametrize("case", WRITER_CASES)
    def test_bad_counts_not_written(self, tmp_path, case):
        row, message = self.BAD_ROWS[case]
        run, language, n_utts, tokens, edits = row.split(",")
        path = tmp_path / "eval" / "L0.csv"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
            write_eval_csv(path, run, language, int(n_utts), int(edits), int(tokens))
        assert not path.parent.exists()

    @settings(max_examples=200, deadline=None)
    @given(
        run=st.text(st.characters(blacklist_categories=("Cs",))),
        language=st.text(st.characters(blacklist_categories=("Cs",))),
        n_utts=st.integers(0, 10**30),
        tokens=st.integers(1, 10**30),
        edits=st.integers(0, 10**30),
    )
    def test_reader_returns_what_writer_accepted(self, run, language, n_utts, tokens, edits):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "L0.csv"
            write_eval_csv(path, run, language, n_utts, edits, tokens)
            assert read_eval_csv(path) == (run, language, edits / tokens * 100.0)

    def test_language_evaluated_twice_rejected(self, tmp_path):
        eval_dir = tmp_path / "WS" / "eval"
        write_eval_csv(eval_dir / "L0-copy.csv", "WS", "L0", 4, 1, 20)
        write_eval_csv(eval_dir / "L0.csv", "WS", "L0", 4, 2, 20)
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(eval_dir / 'L0.csv'))}: language 'L0' has another"):
            collect_run_wers(tmp_path / "WS")

    def test_run_column_other_than_run_directory_rejected(self, tmp_path):
        write_eval_csv(tmp_path / "WS-FT" / "eval" / "L0.csv", "WS-FT", "L0", 4, 1, 20)
        path = tmp_path / "WS-FT" / "eval" / "L1.csv"
        write_eval_csv(path, "SOMETHING-ELSE", "L1", 4, 1, 20)
        message = rf"^{re.escape(str(path))}: run 'SOMETHING-ELSE' does not match its run directory 'WS-FT'$"
        with pytest.raises(DataFormatError, match=message):
            collect_run_wers(tmp_path / "WS-FT")

    def test_run_without_evaluations_rejected(self, tmp_path):
        (tmp_path / "empty" / "eval").mkdir(parents=True)
        for run in ("empty", "missing"):
            with pytest.raises(DataFormatError, match=rf"^{re.escape(str(tmp_path / run / 'eval'))}: no evaluation CSVs$"):
                collect_run_wers(tmp_path / run)


class TestTables:
    # SHA-256 of each file report() renders for the fixture grid
    FIXTURE_SHA256 = {
        "report": "234c34277e41f86270d112f93bd1fcaec08ed0f43740ffd6807f803a12561150",
        "table1": "85fbf0095b3c3e900d8f75ee4423e7cac4b4dab161fc5cd2ebfc1a5b984c7d34",
        "table2": "6eaa5e1acc3eecf378e6c2a9ba0b2c636add05f304e5d01e3e476982abeff0d8",
    }

    def test_fixture_grid_reproduced(self, tmp_path):
        write_fixture_runs(tmp_path)
        run_wers = {r: collect_run_wers(tmp_path / r) for r in FIXTURE_WERS}
        tables = build_tables(run_wers, low_lang="L5", baseline="WS-FT", run_order=RUN_ORDER, pretrain_run="WS")
        header = tables.table1[0]
        assert header == ["run", "L5", "L0", "L1", "L2", "L3", "L4", "mean"]
        assert [row[0] for row in tables.table1[1:]] == RUN_ORDER
        for row in tables.table1[1:]:
            assert row[1:-1] == [format_percent(FIXTURE_WERS[row[0]][lang]) for lang in header[1:-1]]
        # the last row's per-language cells average to 12.93 even though the
        # reference grid prints 12.94; everything else matches exactly
        assert [row[-1] for row in tables.table1[1:]] == ["19.17", "13.38", "13.40", "13.02", "13.13", "12.93"]
        assert tables.table2 == [
            ["run", "low_reduction_percent", "mean_reduction_percent"],
            ["WS-FT", "0.00", "0.00"],
            ["WS-FT-LP-WCE", "5.09", "-0.15"],
            ["WS-FT-GL+", "3.68", "2.69"],
            ["WS-FT-LP-WCE-GL+", "6.69", "1.87"],
            ["WS-FT-DA-WCE-GL+", "4.43", format_percent(relative_reduction(13.38, 12.93))],
        ]

    def test_fixture_grid_rendered_bytes_pinned(self, tmp_path):
        write_fixture_runs(tmp_path / "runs")
        out = report(tmp_path / "runs", tmp_path / "out", low_lang="L5", baseline="WS-FT", run_order=RUN_ORDER, pretrain_run="WS")
        assert {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in out.items()} == self.FIXTURE_SHA256

    def test_baseline_only_runs_reduce_to_zero(self, tmp_path):
        write_fixture_runs(tmp_path, {"WS-FT": FIXTURE_WERS["WS-FT"]})
        out = report(tmp_path, tmp_path / "out", low_lang="L5", baseline="WS-FT", run_order=RUN_ORDER, pretrain_run="WS")
        rows = (out["table2"]).read_text().splitlines()
        assert rows[1].split(",")[1:] == ["0.00", "0.00"]

    def test_rendered_tables_deterministic(self, tmp_path):
        write_fixture_runs(tmp_path)
        a = report(tmp_path, tmp_path / "a", low_lang="L5", baseline="WS-FT", run_order=RUN_ORDER, pretrain_run="WS")
        b = report(tmp_path, tmp_path / "b", low_lang="L5", baseline="WS-FT", run_order=RUN_ORDER, pretrain_run="WS")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_missing_baseline_rejected(self, tmp_path):
        write_fixture_runs(tmp_path, {"WS": FIXTURE_WERS["WS"]})
        with pytest.raises(DataFormatError):
            report(tmp_path, tmp_path / "out", low_lang="L5", baseline="WS-FT", run_order=RUN_ORDER, pretrain_run="WS")

    def test_run_order_without_baseline_rejected(self):
        with pytest.raises(DataFormatError, match=r"baseline run 'WS-FT' not found among the reported runs \['WS', 'WS-FT-GL\+'\]"):
            build_tables(FIXTURE_WERS, low_lang="L5", baseline="WS-FT", run_order=["WS", "WS-FT-GL+"], pretrain_run="WS")

    @pytest.mark.parametrize(
        "lwce, message",
        [
            ({"L0": 5.0}, r"^run 'LWCE' is missing languages \['L1'\]$"),
            ({"L0": 5.0, "L1": 10.0, "L2": 90.0}, r"^run 'LWCE' has languages \['L2'\] that baseline 'WS-FT' lacks$"),
        ],
        ids=["missing-language", "extra-language"],
    )
    def test_run_languages_other_than_the_baselines_rejected(self, lwce, message):
        # unchecked, an extra language would drop out of table 1 and out of the run's mean
        run_wers = {"WS-FT": {"L0": 6.0, "L1": 11.0}, "LWCE": lwce}
        with pytest.raises(DataFormatError, match=message):
            build_tables(run_wers, low_lang="L0", baseline="WS-FT", run_order=["WS", "WS-FT", "LWCE"], pretrain_run="WS")

    @pytest.mark.parametrize(
        "wers, column",
        [({"L0": 0.004, "L1": 6.0, "L2": 9.0}, "L0"), ({"L0": 0.01, "L1": 0.0, "L2": 0.0}, "mean")],
        ids=["low-resource", "mean"],
    )
    def test_baseline_cell_rendered_zero_rejected(self, wers, column):
        # table 2 divides by the baseline's rendered low-resource and mean cells
        run_wers = {"WS-FT": wers, "LWCE": {"L0": 5.0, "L1": 10.0, "L2": 9.0}}
        message = rf"^baseline run 'WS-FT' has {column} WER 0\.00: no reduction is defined against it$"
        with pytest.raises(ValueError, match=message):
            build_tables(run_wers, low_lang="L0", baseline="WS-FT", run_order=["WS", "WS-FT", "LWCE"], pretrain_run="WS")

    def test_run_listed_twice_rejected(self):
        # unchecked, FT's row would be rendered twice in both tables
        with pytest.raises(ValueError, match=r"^run 'FT' is listed twice in the run order \['WS', 'FT', 'FT'\]$"):
            build_tables({"FT": {"L0": 5.0}}, low_lang="L0", baseline="FT", run_order=["WS", "FT", "FT"], pretrain_run="WS")

    def test_missing_runs_directory_rejected(self, tmp_path):
        runs = tmp_path / "nonexistent_runs"
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(runs))}: cannot list run directories: "):
            report(runs, tmp_path / "out", low_lang="L5", baseline="WS-FT", run_order=RUN_ORDER, pretrain_run="WS")
        assert not (tmp_path / "out").exists()

    def test_pretrain_run_outside_run_order_rejected(self):
        # a misspelt pretrain run would otherwise put WS into table 2 as a regression against the baseline
        order = ["WS", "WS-FT"]
        with pytest.raises(ValueError, match=r"^pretrain run 'W S' is not in the run order \['WS', 'WS-FT'\]$"):
            build_tables(FIXTURE_WERS, low_lang="L5", baseline="WS-FT", run_order=order, pretrain_run="W S")

    def test_runs_listed_without_evaluations_left_out(self, tmp_path):
        write_fixture_runs(tmp_path, {name: FIXTURE_WERS[name] for name in ("WS-FT", "WS-FT-GL+")})
        out = report(tmp_path, tmp_path / "out", low_lang="L5", baseline="WS-FT", run_order=RUN_ORDER, pretrain_run="WS")
        assert [row.split(",")[0] for row in out["table1"].read_text().splitlines()] == ["run", "WS-FT", "WS-FT-GL+"]

    def test_unlisted_run_directories_rejected(self, tmp_path):
        write_fixture_runs(tmp_path / "runs")
        for typo in ("LWCE-typo", "WS-FT-GL"):
            write_eval_csv(tmp_path / "runs" / typo / "eval" / "L5.csv", typo, "L5", 200, 1000, 100000)
        unlisted = [str(tmp_path / "runs" / "LWCE-typo"), str(tmp_path / "runs" / "WS-FT-GL")]
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(tmp_path / 'runs'))}: run directories {re.escape(str(unlisted))} "):
            report(tmp_path / "runs", tmp_path / "out", low_lang="L5", baseline="WS-FT", run_order=RUN_ORDER, pretrain_run="WS")
        assert not (tmp_path / "out").exists()

    def test_percent_formatting_two_decimals(self):
        assert format_percent(12.935001) == "12.94"
        assert format_percent(-0.149) == "-0.15"
