"""Word error rates, the evaluation CSVs that hold their counts, and the result tables built from them."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .manifest import repeated_id
from .util import DataFormatError, is_int, read_file, write_file

EVAL_FIELDS = ["run", "language", "n_utts", "total_ref_tokens", "total_edits"]


def edit_distance(ref: Sequence, hyp: Sequence) -> int:
    """Unit-cost Levenshtein distance: the fewest substitutions, deletions and insertions turning hyp into ref."""
    if len(ref) == 0:
        raise ValueError("reference must be non-empty")
    prev = list(range(len(hyp) + 1))
    for i, ri in enumerate(ref, 1):
        row = [i]
        cell = i
        # row[j] = min(prev[j - 1] + (ri != hyp[j - 1]), row[j - 1] + 1, prev[j] + 1)
        for h, diag, up in zip(hyp, prev, prev[1:]):
            left = cell + 1
            cell = diag if ri == h else diag + 1
            if left < cell:
                cell = left
            if up + 1 < cell:
                cell = up + 1
            row.append(cell)
        prev = row
    return prev[-1]


def corpus_wer(pairs: Sequence[tuple[Sequence, Sequence]]) -> float:
    """Pooled WER: total edits over total reference tokens across all pairs."""
    if len(pairs) == 0:
        raise ValueError("no (ref, hyp) pairs given")
    edits = 0
    tokens = 0
    for ref, hyp in pairs:
        edits += edit_distance(ref, hyp)
        tokens += len(ref)
    return edits / tokens


def relative_reduction(base_wer: float, new_wer: float) -> float:
    """Percent reduction of new_wer against base_wer; negative when it regressed."""
    if base_wer <= 0:
        raise ValueError("baseline WER must be positive")
    return (base_wer - new_wer) / base_wer * 100.0


def row_mean(wers: Sequence[float]) -> float:
    if len(wers) == 0:
        raise ValueError("empty row")
    return sum(wers) / len(wers)


def format_percent(x: float) -> str:
    """Two decimal places; ties resolve half-to-even like the rest of the tables."""
    return f"{x:.2f}"


# ---------------------------------------------------------------------------
# evaluation CSVs and report assembly


def _check_counts(n_utts: int, total_ref_tokens: int, total_edits: int) -> None:
    """Raise ``ValueError`` unless every count is an int (not a bool), none is negative and total_ref_tokens >= 1.

    ``write_eval_csv`` and ``read_eval_csv`` both apply it, so the writer
    refuses what the reader would refuse.
    """
    counts = {"n_utts": n_utts, "total_ref_tokens": total_ref_tokens, "total_edits": total_edits}
    for name, value in counts.items():
        if not is_int(value):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if total_ref_tokens < 1:
        raise ValueError(f"total_ref_tokens must be >= 1, got {total_ref_tokens}")
    if min(n_utts, total_edits) < 0:
        raise ValueError(f"counts must be non-negative, got n_utts={n_utts}, total_edits={total_edits}")


def write_eval_csv(path: str | Path, run: str, language: str, n_utts: int, edits: int, ref_tokens: int) -> None:
    """Write one run's evaluation of one language as its counts: the header ``EVAL_FIELDS`` and one row.

    Raises ``ValueError`` naming the file, and writes nothing, when the counts
    break ``_check_counts`` or the text cannot be encoded (a lone surrogate).
    """
    text = io.StringIO()
    try:
        _check_counts(n_utts, ref_tokens, edits)
        csv.writer(text).writerows([EVAL_FIELDS, [run, language, n_utts, ref_tokens, edits]])
        data = text.getvalue().encode("utf-8")
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    write_file(path, data)


def read_eval_csv(path: str | Path) -> tuple[str, str, float]:
    """(run, language, WER %) of an evaluation CSV, the WER 100 * total_edits / total_ref_tokens of its counts.

    Raises ``DataFormatError`` naming the file when it holds other columns or
    rows, writes a count other than as the plain decimal the writer writes, or
    holds counts that ``_check_counts`` refuses.
    """
    reader = csv.DictReader(io.StringIO(read_file(path, "evaluation CSV"), newline=""))
    rows = list(reader)
    if reader.fieldnames != EVAL_FIELDS or len(rows) != 1 or None in rows[0]:
        raise DataFormatError(f"{path}: expected one evaluation row with fields {EVAL_FIELDS}")
    try:
        counts = [int(rows[0][name]) for name in EVAL_FIELDS[2:]]
        for name, value in zip(EVAL_FIELDS[2:], counts):
            if str(value) != rows[0][name]:
                raise ValueError(f"{name} {rows[0][name]!r} is not written as a plain decimal")
        _check_counts(*counts)
    except (TypeError, ValueError) as e:
        raise DataFormatError(f"{path}: {e}") from e
    _, tokens, edits = counts
    return rows[0]["run"], rows[0]["language"], edits / tokens * 100.0


def collect_run_wers(run_dir: str | Path) -> dict[str, float]:
    """Per-language WER percents from a run directory's eval/ CSVs, one per language, each naming that run."""
    eval_dir = Path(run_dir) / "eval"
    out = {}
    for path in sorted(eval_dir.glob("*.csv")):
        run, language, wer = read_eval_csv(path)
        if run != eval_dir.parent.name:
            raise DataFormatError(f"{path}: run {run!r} does not match its run directory {eval_dir.parent.name!r}")
        if language in out:
            raise DataFormatError(f"{path}: language {language!r} has another evaluation CSV in {eval_dir}")
        out[language] = wer
    if not out:
        raise DataFormatError(f"{eval_dir}: no evaluation CSVs")
    return out


@dataclass
class ResultTables:
    """The two tables as rendered rows, header first."""

    table1: list[list[str]]  # run, WER % per language (low-resource first), mean
    table2: list[list[str]]  # run, low-resource and mean WER reduction % against the baseline


def build_tables(
    run_wers: dict[str, dict[str, float]],
    low_lang: str,
    baseline: str,
    run_order: Sequence[str],
    pretrain_run: str,
) -> ResultTables:
    """Render the WER table, then derive the reduction-vs-baseline table from its cells, so the two agree.

    Rows follow ``run_order``, skipping runs ``run_wers`` lacks; ``pretrain_run``
    is in the WER table only. Each WER and row mean is rounded once, to the two
    decimals rendered.
    Raises ``ValueError`` when ``run_order`` lists a run twice or lacks
    ``pretrain_run``, or a baseline cell that table 2 divides by renders as
    ``0.00``, and ``DataFormatError`` when a run's languages differ from the baseline's.
    """
    repeat = repeated_id(run_order)
    if repeat:
        raise ValueError(f"run {repeat[0]!r} is listed twice in the run order {list(run_order)}")
    if pretrain_run not in run_order:
        raise ValueError(f"pretrain run {pretrain_run!r} is not in the run order {list(run_order)}")
    names = [n for n in run_order if n in run_wers]
    if baseline not in names:
        raise DataFormatError(f"baseline run {baseline!r} not found among the reported runs {names}")
    langs = sorted(run_wers[baseline])
    if low_lang not in langs:
        raise DataFormatError(f"low-resource language {low_lang!r} missing from baseline evaluation")
    langs = [low_lang] + [l for l in langs if l != low_lang]

    table1 = [["run", *langs, "mean"]]
    for name in names:
        missing = [l for l in langs if l not in run_wers[name]]
        if missing:
            raise DataFormatError(f"run {name!r} is missing languages {missing}")
        extra = sorted(run_wers[name].keys() - set(langs))
        if extra:
            raise DataFormatError(f"run {name!r} has languages {extra} that baseline {baseline!r} lacks")
        cells = [format_percent(run_wers[name][l]) for l in langs]
        table1.append([name, *cells, format_percent(row_mean([float(c) for c in cells]))])

    # the low-resource language is column 1 and the mean the last column
    base = table1[1 + names.index(baseline)]
    for i in (1, -1):
        if float(base[i]) <= 0:
            raise ValueError(f"baseline run {baseline!r} has {table1[0][i]} WER {base[i]}: no reduction is defined against it")
    table2 = [["run", "low_reduction_percent", "mean_reduction_percent"]]
    for row in table1[1:]:
        if row[0] != pretrain_run:
            table2.append([row[0], *(format_percent(relative_reduction(float(base[i]), float(row[i]))) for i in (1, -1))])
    return ResultTables(table1, table2)


def report(
    runs_dir: str | Path,
    out_dir: str | Path,
    low_lang: str,
    baseline: str,
    run_order: Sequence[str],
    pretrain_run: str,
) -> dict[str, Path]:
    """Build report.md / table1.csv / table2.csv from the run dirs under runs_dir, in ``run_order``.

    A listed run with no ``eval/`` directory is left out; an unlisted one, or a
    ``runs_dir`` that cannot be listed, raises ``DataFormatError``.
    """
    try:
        run_dirs = [p for p in sorted(Path(runs_dir).iterdir()) if (p / "eval").is_dir()]
    except OSError as e:
        raise DataFormatError(f"{runs_dir}: cannot list run directories: {e}") from e
    unlisted = [str(p) for p in run_dirs if p.name not in run_order]
    if unlisted:
        raise DataFormatError(f"{runs_dir}: run directories {unlisted} are not in the run order {list(run_order)}")
    run_wers = {p.name: collect_run_wers(p) for p in run_dirs}
    if not run_wers:
        raise DataFormatError(f"{runs_dir}: no run directories with evaluations")
    tables = build_tables(run_wers, low_lang=low_lang, baseline=baseline, run_order=run_order, pretrain_run=pretrain_run)
    out_dir = Path(out_dir)
    paths = {"report": out_dir / "report.md", "table1": out_dir / "table1.csv", "table2": out_dir / "table2.csv"}
    for key, rows in (("table1", tables.table1), ("table2", tables.table2)):
        text = io.StringIO()
        csv.writer(text).writerows(rows)
        write_file(paths[key], text.getvalue())
    md = ["# Benchmark results", ""]
    reductions = [["run", f"{low_lang} reduction", "mean reduction"], *tables.table2[1:]]
    for title, rows in (("Per-language WER (%)", tables.table1), (f"Relative WER reduction vs {baseline} (%)", reductions)):
        lines = ["| " + " | ".join(row) + " |" for row in rows]
        md += [f"## {title}", "", lines[0], "|" + "---|" * len(rows[0]), *lines[1:], ""]
    write_file(paths["report"], "\n".join(md))
    return paths
