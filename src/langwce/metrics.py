"""Word-error-rate computation and benchmark result tables.

Edit distance is the unit-cost Levenshtein distance. Corpus WER pools edits
over pooled reference length rather than averaging per-sentence rates.

The report assembles two tables from per-run evaluation CSVs: per-language
WER with a Mean column, and relative reductions against a baseline run for
the low-resource language and the row mean. Reductions are computed from the
two-decimal displayed table cells so the two tables stay self-consistent.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .util import DataFormatError

EVAL_FIELDS = ["run", "language", "n_utts", "total_ref_tokens", "total_edits", "wer_percent"]


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


def write_eval_csv(path: str | Path, run: str, language: str, n_utts: int, counts_total: int, ref_tokens: int) -> None:
    if ref_tokens < 1:
        raise ValueError(f"{path}: ref_tokens must be >= 1, got {ref_tokens}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(EVAL_FIELDS)
        w.writerow([run, language, n_utts, ref_tokens, counts_total, repr(counts_total / ref_tokens * 100.0)])


def read_eval_csv(path: str | Path) -> dict:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != 1 or set(EVAL_FIELDS) - set(rows[0]):
        raise DataFormatError(f"{path}: expected one evaluation row with fields {EVAL_FIELDS}")
    row = rows[0]
    try:
        counts = {name: int(row[name]) for name in ("n_utts", "total_ref_tokens", "total_edits")}
        wer_percent = float(row["wer_percent"])
    except (TypeError, ValueError) as e:
        raise DataFormatError(f"{path}: {e}") from e
    if counts["total_ref_tokens"] < 1:
        raise DataFormatError(f"{path}: total_ref_tokens must be >= 1, got {counts['total_ref_tokens']}")
    return {"run": row["run"], "language": row["language"], **counts, "wer_percent": wer_percent}


def collect_run_wers(run_dir: str | Path) -> dict[str, float]:
    """Per-language WER percents from a run directory's eval/ CSVs."""
    eval_dir = Path(run_dir) / "eval"
    if not eval_dir.is_dir():
        raise DataFormatError(f"{run_dir}: no eval/ directory")
    out = {}
    for path in sorted(eval_dir.glob("*.csv")):
        row = read_eval_csv(path)
        out[row["language"]] = row["total_edits"] / row["total_ref_tokens"] * 100.0
    if not out:
        raise DataFormatError(f"{eval_dir}: no evaluation CSVs")
    return out


@dataclass
class ResultTables:
    """Rendered benchmark tables: rows of (name, cells) with fixed column order."""

    languages: list[str]  # low-resource language first
    table1: list[tuple[str, list[float], float]]  # run, per-language WER%, mean
    table2: list[tuple[str, float, float]]  # run, low reduction %, mean reduction %


def build_tables(
    run_wers: dict[str, dict[str, float]],
    low_lang: str,
    baseline: str,
    run_order: Sequence[str] | None = None,
    pretrain_run: str | None = None,
) -> ResultTables:
    """Assemble the WER table and the reduction-vs-baseline table.

    All cells are rounded to two decimals first; the reduction table is then
    derived from the WER table's rows. ``pretrain_run`` (if given) is shown in
    the WER table but excluded from the reduction table.
    """
    names = [n for n in (run_order or sorted(run_wers)) if n in run_wers]
    if baseline not in names:
        raise DataFormatError(f"baseline run {baseline!r} not found among the reported runs {names}")
    langs = sorted(run_wers[baseline])
    if low_lang not in langs:
        raise DataFormatError(f"low-resource language {low_lang!r} missing from baseline evaluation")
    langs = [low_lang] + [l for l in langs if l != low_lang]

    table1 = []
    for name in names:
        missing = [l for l in langs if l not in run_wers[name]]
        if missing:
            raise DataFormatError(f"run {name!r} is missing languages {missing}")
        cells = [float(format_percent(run_wers[name][l])) for l in langs]
        table1.append((name, cells, float(format_percent(row_mean(cells)))))

    # the low-resource language is column 0
    _, base_cells, base_mean = table1[names.index(baseline)]
    table2 = [
        (name, relative_reduction(base_cells[0], cells[0]), relative_reduction(base_mean, mean))
        for name, cells, mean in table1
        if name != pretrain_run
    ]
    return ResultTables(languages=langs, table1=table1, table2=table2)


def render_markdown(tables: ResultTables, baseline: str) -> str:
    lines = ["# Benchmark results", "", "## Per-language WER (%)", ""]
    header = ["run"] + tables.languages + ["mean"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for name, cells, mean in tables.table1:
        lines.append("| " + " | ".join([name] + [format_percent(c) for c in cells] + [format_percent(mean)]) + " |")
    lines += ["", f"## Relative WER reduction vs {baseline} (%)", ""]
    lines.append(f"| run | {tables.languages[0]} reduction | mean reduction |")
    lines.append("|---|---|---|")
    for name, low_red, mean_red in tables.table2:
        lines.append(f"| {name} | {format_percent(low_red)} | {format_percent(mean_red)} |")
    lines.append("")
    return "\n".join(lines)


def write_tables(tables: ResultTables, out_dir: str | Path, baseline: str) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t1 = out_dir / "table1.csv"
    with open(t1, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["run"] + tables.languages + ["mean"])
        for name, cells, mean in tables.table1:
            w.writerow([name] + [format_percent(c) for c in cells] + [format_percent(mean)])
    t2 = out_dir / "table2.csv"
    with open(t2, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["run", "low_reduction_percent", "mean_reduction_percent"])
        for name, low_red, mean_red in tables.table2:
            w.writerow([name, format_percent(low_red), format_percent(mean_red)])
    md = out_dir / "report.md"
    md.write_text(render_markdown(tables, baseline))
    return {"report": md, "table1": t1, "table2": t2}


def report(
    runs_dir: str | Path,
    out_dir: str | Path,
    low_lang: str,
    baseline: str = "WS-FT",
    run_order: Sequence[str] | None = None,
    pretrain_run: str | None = "WS",
) -> dict[str, Path]:
    """Build report.md / table1.csv / table2.csv from a directory of run dirs."""
    runs_dir = Path(runs_dir)
    run_wers = {}
    for run_dir in sorted(p for p in runs_dir.iterdir() if p.is_dir()):
        if (run_dir / "eval").is_dir():
            run_wers[run_dir.name] = collect_run_wers(run_dir)
    if not run_wers:
        raise DataFormatError(f"{runs_dir}: no run directories with evaluations")
    tables = build_tables(run_wers, low_lang=low_lang, baseline=baseline, run_order=run_order, pretrain_run=pretrain_run)
    return write_tables(tables, out_dir, baseline)

