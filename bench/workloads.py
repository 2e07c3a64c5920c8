"""The benchmark's workloads over langwce's public functions.

Each workload has a set-up (timed as ``setup_s``), a pass that is repeated for
the measured time (timed as ``pass_s``), output checks, and a digest of the
pass's results. Every call into the package goes through a module attribute
(``model.run_phase``, not a name imported from it), so the tracer's re-bound
wrappers see it. The inputs are generated from the workload seed; the program
sees only the generated corpus.
"""

from __future__ import annotations

import csv
import hashlib
import time
import wave
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from langwce import audio, metrics, model, synthlang
from langwce.manifest import read_manifest
from langwce.schedule import DynamicSchedule, LinearSchedule, Weighting, WeightMode
from langwce.synthlang import CorpusConfig
from langwce.util import DataFormatError, DivergenceError

# Errors that count as a failed operation; anything else is a benchmark bug and propagates.
OPERATION_ERRORS = (DataFormatError, DivergenceError)
BATCH = 16


class Ops:
    """Operations attempted and failed; a failed operation is recorded, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except OPERATION_ERRORS as err:
            self.fail(f"{type(err).__name__}: {err}")
            return None

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        self.errors.append(message)


class Units:
    """Wall time of each named unit of one pass; also a span when a tracer is active.

    A unit is one short call into the program (well under a second), and every
    pass runs the same units. The benchmark averages each unit's times over
    the passes, without the outer tenths (see ``run.trimmed_mean``).
    """

    def __init__(self, tracer=None):
        self.seconds: dict[str, float] = {}
        self.tracer = tracer

    @contextmanager
    def __call__(self, name: str):
        span = self.tracer.open(f"bench.{name}") if self.tracer else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = time.perf_counter() - t0
            if span is not None:
                self.tracer.close(span)


def _params_bytes(net) -> bytes:
    return b"".join(arr.tobytes() for arr in net.parameters().values())


def _read_table(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def evaluate(ops: Ops, units: Units, run: str, net, test, languages, runs_dir: Path) -> dict[str, float]:
    """Decode and score the test split one language at a time, writing one eval CSV each; returns WER % per language."""
    wers = {}
    for lang in languages:
        with units(f"eval/{run}/{lang.name}"):
            examples = [ex for ex in test if ex.lang == lang.id]
            ops.attempted += len(examples)
            pairs = [(ex.text, model.decode(net, ex.features, ex.lang)) for ex in examples]
            tokens = sum(len(ref) for ref, _ in pairs)
            edits = round(metrics.corpus_wer(pairs) * tokens)
            metrics.write_eval_csv(runs_dir / run / "eval" / f"{lang.name}.csv", run, lang.name, len(pairs), edits, tokens)
        wers[lang.name] = edits / tokens * 100.0
    return wers


def check_table1(path: Path, low: str, wers: dict[str, dict[str, float]], problems: list[str]) -> dict:
    """table1.csv has every run and language, and each cell equals the WER the benchmark computed."""
    rows = _read_table(path)
    langs = sorted({l for w in wers.values() for l in w})
    expect_header = ["run", low] + [l for l in langs if l != low] + ["mean"]
    if rows[0] != expect_header:
        problems.append(f"{path.name}: header {rows[0]} != {expect_header}")
        return {}
    table = {row[0]: dict(zip(rows[0][1:], map(float, row[1:]))) for row in rows[1:]}
    if list(table) != list(wers):
        problems.append(f"{path.name}: runs {list(table)} != {list(wers)}")
    for run, by_lang in wers.items():
        for lang, value in by_lang.items():
            if table.get(run, {}).get(lang) != float(metrics.format_percent(value)):
                problems.append(f"{path.name}: {run}/{lang} does not round-trip {value}")
    return table


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridScale:
    corpus: CorpusConfig
    pretrain_steps: int
    finetune_steps: int


class PaperGrid:
    """WS pretrain in set-up; the pass runs WS-FT, LWCE-linear and LWCE-dynamic fine-tunes, test decoding and tables."""

    RUNS = ("WS", "WS-FT", "LWCE-linear", "LWCE-dynamic")

    def __init__(self, seed: int, scale: GridScale):
        self.seed = seed
        self.scale = scale
        self.low = f"L{scale.corpus.low_lang}"

    def _finetunes(self):
        n = self.scale.finetune_steps
        return [
            ("WS-FT", Weighting()),
            ("LWCE-linear", Weighting(WeightMode.LINEAR, linear=LinearSchedule(1.5, 3.0, t_min=n // 5, t_total=n))),
            ("LWCE-dynamic", Weighting(WeightMode.DYNAMIC, dynamic=DynamicSchedule(alpha=1.5))),
        ]

    def setup(self, root: Path, ops: Ops):
        """Synthesize and load the corpus, pretrain WS on it, and round-trip WS through a checkpoint."""
        corpus = root / "corpus"
        if ops.call(synthlang.generate_corpus, self.scale.corpus, corpus) is None:
            return None
        _, languages = synthlang.load_corpus_meta(corpus)
        data = {split: ops.call(synthlang.load_examples, corpus, split, languages) for split in ("pretrain", "finetune", "valid")}
        if None in data.values():
            return None
        trained = ops.call(model.run_phase, "pretrain", corpus, self._train_cfg(self.scale.pretrain_steps, Weighting()), dataset=data)
        if trained is None:
            return None
        ckpt = model.save_checkpoint(trained.model, {"run": "WS", "seed": self.seed}, root / "WS.json")
        loaded = ops.call(model.load_checkpoint, ckpt, expect_config=trained.model.config)
        if loaded is None:
            return None
        return {"corpus": corpus, "languages": languages, "data": data, "trained": trained.model, "ckpt": ckpt, "net": loaded[0]}

    def _train_cfg(self, steps: int, weighting: Weighting) -> model.TrainConfig:
        return model.TrainConfig(total_steps=steps, batch_size=BATCH, eval_every=steps // 2, weighting=weighting, seed=self.seed)

    def run(self, state, out: Path, units: Units, ops: Ops) -> dict:
        corpus, languages = state["corpus"], state["languages"]
        runs = out / "runs"
        nets = {"WS": state["net"]}
        for name, weighting in self._finetunes():
            with units(f"train/{name}"):
                loaded = ops.call(model.load_checkpoint, state["ckpt"], expect_config=state["net"].config)
                if loaded is None:
                    continue
                cfg = self._train_cfg(self.scale.finetune_steps, weighting)
                ft = ops.call(model.run_phase, "finetune", corpus, cfg, start_model=loaded[0], dataset=state["data"])
            if ft is not None:
                nets[name] = ft.model
        wers = {}
        with units("eval/load"):
            test = ops.call(synthlang.load_examples, corpus, "test", languages)
        if test is not None:
            for name, net in nets.items():
                wers[name] = evaluate(ops, units, name, net, test, languages, runs)
        with units("report"):
            tables = ops.call(
                metrics.report, runs, out / "tables", baseline="WS-FT", low_lang=self.low, run_order=self.RUNS, pretrain_run="WS"
            )
        return {"nets": nets, "wers": wers, "tables": tables}

    def check(self, state, result) -> tuple[list[str], dict[str, float]]:
        problems = []
        if _params_bytes(state["net"]) != _params_bytes(state["trained"]):
            problems.append("checkpoint did not load back bit-identical")
        nets, wers, tables = result["nets"], result["wers"], result["tables"]
        if list(nets) != list(self.RUNS):
            problems.append(f"runs finished: {list(nets)}, expected {list(self.RUNS)}")
        for name, net in nets.items():
            if not all(np.all(np.isfinite(p)) for p in net.parameters().values()):
                problems.append(f"{name}: non-finite parameters")
        if tables is None:
            return problems + ["report() produced no tables"], {}
        table1 = check_table1(tables["table1"], self.low, wers, problems)
        table2 = {row[0]: float(row[1]) for row in _read_table(tables["table2"])[1:]}
        if list(table2) != list(self.RUNS[1:]):
            problems.append(f"table2 runs {list(table2)} != {list(self.RUNS[1:])}")
        best = table1.get("LWCE-dynamic", {})
        quality = {
            "quality.low_wer_pct": best.get(self.low, 0.0),
            "quality.mean_wer_pct": best.get("mean", 0.0),
            "quality.low_wer_reduction_pct": table2.get("LWCE-dynamic", 0.0),
        }
        return problems, quality

    def digest(self, state, result) -> str:
        h = hashlib.sha256()
        for name, net in result["nets"].items():
            h.update(name.encode())
            h.update(_params_bytes(net))
        if result["tables"] is not None:
            for key in ("table1", "table2"):
                h.update(result["tables"][key].read_bytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentScale:
    corpus: CorpusConfig
    multiplier: int


# No clip draws a 0-semitone shift, which would skip pitch_shift's time stretch: the
# work in a pass then does not depend on how many clips the seed happens to draw 0 for.
PITCH_RANGE = (1, 2)


class AugmentDA:
    """Augment each language's fine-tune split, one language per call, then featurize each augmented manifest."""

    def __init__(self, seed: int, scale: AugmentScale):
        self.seed = seed
        self.scale = scale
        self.per_language = scale.corpus.finetune_per_lang * scale.multiplier

    def setup(self, root: Path, ops: Ops):
        corpus = root / "corpus"
        if ops.call(synthlang.generate_corpus, self.scale.corpus, corpus) is None:
            return None
        _, languages = synthlang.load_corpus_meta(corpus)
        return {"corpus": corpus, "languages": languages}

    def run(self, state, out: Path, units: Units, ops: Ops) -> dict:
        done = {}
        for lang in state["languages"]:
            target = out / lang.name
            with units(f"augment/{lang.name}"):
                result = ops.call(
                    audio.augment_dataset,
                    state["corpus"] / "manifest.jsonl",
                    target,
                    audio.AugmentSpec(pitch_range_semitones=PITCH_RANGE, seed=self.seed),
                    languages={lang.name},
                    splits={"finetune"},
                    multiplier=self.scale.multiplier,
                )
            # each clip augment_dataset is asked to write is an operation of its own
            ops.attempted += self.per_language
            if result is None:
                ops.failed += self.per_language
                continue
            for utt_id, message in result.failures:
                ops.fail(f"augment {utt_id}: {message}", n=self.scale.multiplier)
            with units(f"featurize/{lang.name}"):
                examples = ops.call(synthlang.load_examples, target, "finetune", state["languages"])
            done[lang.name] = (target, result, examples)
        return done

    @staticmethod
    def _augmented_entries(target: Path):
        return [e for e in read_manifest(target / "manifest.jsonl") if e.augmented]

    def check(self, state, result) -> tuple[list[str], dict[str, float]]:
        problems = []
        if list(result) != [lang.name for lang in state["languages"]]:
            problems.append(f"augmented languages {list(result)}")
        rate = self.scale.corpus.sample_rate
        for name, (target, res, examples) in result.items():
            if res.failures:
                problems.append(f"{name}: {len(res.failures)} augmentation failures")
            if res.n_augmented != self.per_language:
                problems.append(f"{name}: {res.n_augmented} clips augmented, expected {self.per_language}")
            entries = self._augmented_entries(target)
            if len(entries) != self.per_language:
                problems.append(f"{name}: manifest lists {len(entries)} augmented entries, expected {self.per_language}")
            for e in entries:
                with wave.open(str(target / e.wav), "rb") as w:
                    if (w.getnchannels(), w.getsampwidth(), w.getframerate()) != (1, 2, rate) or w.getnframes() == 0:
                        problems.append(f"{e.wav}: not a non-empty 16-bit mono WAV at {rate} Hz")
            featurized = {ex.utt_id: ex for ex in examples or []}
            for e in entries:
                ex = featurized.get(e.id)
                if ex is None or ex.features.shape[0] < 1 or not np.all(np.isfinite(ex.features)):
                    problems.append(f"{e.id}: augmented clip did not featurize")
        return problems, {}

    def digest(self, state, result) -> str:
        h = hashlib.sha256()
        for target, _, _ in result.values():
            h.update((target / "manifest.jsonl").read_bytes())
            for e in self._augmented_entries(target):
                h.update((target / e.wav).read_bytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Sizes. "full" is what the benchmark measures; "smoke" is the benchmark's own test.

SCALES = {
    "full": {
        "paper-grid": GridScale(
            CorpusConfig(pretrain_per_high=100, finetune_per_lang=50, valid_per_lang=20, test_per_lang=40),
            pretrain_steps=500,
            finetune_steps=50,
        ),
        "augment-da": AugmentScale(
            CorpusConfig(
                pretrain_per_high=1, low_fraction=1.0, finetune_per_lang=5, valid_per_lang=1, test_per_lang=1,
                min_len=7, max_len=7,
            ),
            multiplier=1,
        ),
    },
    "smoke": {
        "paper-grid": GridScale(
            CorpusConfig(
                n_langs=3, low_lang=2, pretrain_per_high=10, low_fraction=0.1, finetune_per_lang=6,
                valid_per_lang=2, test_per_lang=4, max_len=5,
            ),
            pretrain_steps=20,
            finetune_steps=10,
        ),
        "augment-da": AugmentScale(
            CorpusConfig(
                n_langs=3, low_lang=2, pretrain_per_high=1, low_fraction=1.0, finetune_per_lang=2,
                valid_per_lang=1, test_per_lang=1, max_len=4,
            ),
            multiplier=2,
        ),
    },
}

WORKLOADS = {"paper-grid": PaperGrid, "augment-da": AugmentDA}


def make(name: str, seed: int, scale: str):
    base = SCALES[scale][name]
    return WORKLOADS[name](seed, replace(base, corpus=replace(base.corpus, seed=seed)))
