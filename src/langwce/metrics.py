"""Word-error-rate computation and benchmark result tables.

Edit distance uses unit-cost Levenshtein dynamic programming with a fixed
tie-break (substitution over insertion over deletion) so the S/D/I split is
reproducible; the total distance is tie-independent. Corpus WER pools edits
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


@dataclass(frozen=True)
class EditCounts:
    substitutions: int
    deletions: int
    insertions: int
    ref_len: int

    def __post_init__(self):
        if self.ref_len <= 0:
            raise ValueError("ref_len must be positive")
        if min(self.substitutions, self.deletions, self.insertions) < 0:
            raise ValueError("edit counts must be non-negative")
        if self.substitutions + self.deletions > self.ref_len:
            raise ValueError("S + D cannot exceed the reference length")

    @property
    def total(self) -> int:
        return self.substitutions + self.deletions + self.insertions


def edit_distance(ref: Sequence, hyp: Sequence) -> EditCounts:
    """Minimal unit-cost edits transforming hyp into ref, with a S/D/I breakdown."""
    if len(ref) == 0:
        raise ValueError("reference must be non-empty")
    n, m = len(ref), len(hyp)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        ri = ref[i - 1]
        row, prev = dist[i], dist[i - 1]
        for j in range(1, m + 1):
            row[j] = min(
                prev[j - 1] + (ri != hyp[j - 1]),
                row[j - 1] + 1,
                prev[j] + 1,
            )
    # backtrace with fixed preference: substitution/match, then insertion, then deletion
    s = d = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            s += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif j > 0 and dist[i][j] == dist[i][j - 1] + 1:
            ins += 1
            j -= 1
        else:
            d += 1
            i -= 1
    return EditCounts(substitutions=s, deletions=d, insertions=ins, ref_len=n)


def wer(counts: EditCounts) -> float:
    """(S + D + I) / ref_len as a ratio; can exceed 1 with many insertions."""
    return counts.total / counts.ref_len


def corpus_wer(pairs: Sequence[tuple[Sequence, Sequence]]) -> float:
    """Pooled WER: total edits over total reference tokens across all pairs."""
    if len(pairs) == 0:
        raise ValueError("no (ref, hyp) pairs given")
    edits = 0
    tokens = 0
    for ref, hyp in pairs:
        c = edit_distance(ref, hyp)
        edits += c.total
        tokens += c.ref_len
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
    return {
        "run": row["run"],
        "language": row["language"],
        "n_utts": int(row["n_utts"]),
        "total_ref_tokens": int(row["total_ref_tokens"]),
        "total_edits": int(row["total_edits"]),
        "wer_percent": float(row["wer_percent"]),
    }


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
    derived from the rounded values. ``pretrain_run`` (if given) is shown in
    the WER table but excluded from the reduction table.
    """
    if baseline not in run_wers:
        raise DataFormatError(f"baseline run {baseline!r} not found among runs {sorted(run_wers)}")
    names = list(run_order) if run_order else sorted(run_wers)
    names = [n for n in names if n in run_wers]
    langs = sorted(run_wers[baseline])
    if low_lang not in langs:
        raise DataFormatError(f"low-resource language {low_lang!r} missing from baseline evaluation")
    langs = [low_lang] + [l for l in langs if l != low_lang]

    def rounded_row(name):
        missing = [l for l in langs if l not in run_wers[name]]
        if missing:
            raise DataFormatError(f"run {name!r} is missing languages {missing}")
        return [float(format_percent(run_wers[name][l])) for l in langs]

    table1 = []
    rounded = {}
    for name in names:
        cells = rounded_row(name)
        rounded[name] = cells
        table1.append((name, cells, float(format_percent(row_mean(cells)))))

    base_cells = dict(zip(langs, rounded[baseline]))
    base_mean = float(format_percent(row_mean(rounded[baseline])))
    table2 = []
    for name, cells, mean in table1:
        if name == pretrain_run:
            continue
        table2.append(
            (
                name,
                relative_reduction(base_cells[low_lang], dict(zip(langs, cells))[low_lang]),
                relative_reduction(base_mean, mean),
            )
        )
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

