"""Spans around calls into langwce's public functions, and the per-layer metrics built from them.

The package imports its helpers by name (``from .audio import read_wav``), so a
function is traced by re-binding its name in every module that calls it:
``langwce.synthlang.read_wav`` and ``langwce.audio.read_wav`` are separate
bindings of one function. ``Weighting.decide`` is re-bound on the class. The
package's own code is never edited.

A span is (name, start, end, parent). Spans stay in memory and are written out
when the benchmark ends. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter

from langwce import audio, loss, metrics, model, schedule, synthlang
from langwce.schedule import Branch


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _audio_seconds(clip) -> float:
    return len(clip) / clip.sample_rate


# Count hooks run after the wrapped call returns: (counts, args, kwargs, result) -> None.
def _count_synthesized(c, a, k, r):
    c["synthlang.audio_s_synthesized"] += _audio_seconds(r)


def _count_featurized(c, a, k, r):
    c["synthlang.frames_featurized"] += r.n_frames


def _count_read(c, a, k, r):
    c["audio.wav_bytes_read"] += 2 * len(r)  # 16-bit PCM payload


def _count_written(c, a, k, r):
    c["audio.wav_bytes_written"] += 2 * len(_arg(a, k, 1, "clip"))


def _count_manifest_read(c, a, k, r):
    c["manifest.entries"] += len(r)


def _count_manifest_written(c, a, k, r):
    c["manifest.entries"] += len(_arg(a, k, 1, "entries"))


def _count_augmented(c, a, k, r):
    c["audio.clips_augmented"] += 1
    c["audio.augment_input_s"] += _audio_seconds(_arg(a, k, 0, "clip"))


def _count_augment_failures(c, a, k, r):
    c["audio.augment_failures"] += len(r.failures)


def _count_train_frames(c, a, k, r):
    c["model.train_frames"] += sum(len(ex.labels) for ex in _arg(a, k, 1, "batch"))


def _count_checkpoint_bytes(c, a, k, r):
    c["model.checkpoint_bytes"] += r.stat().st_size


def _count_branch(c, a, k, r):
    c[f"schedule.branch.{r.branch.value}"] += 1


def _count_dp_cells(c, a, k, r):
    c["metrics.dp_cells"] += (len(_arg(a, k, 0, "ref")) + 1) * (len(_arg(a, k, 1, "hyp")) + 1)


# (owner, attribute, span name, count hook). One span name per function, whatever the binding.
BINDINGS = [
    (synthlang, "generate_corpus", "synthlang.generate_corpus", None),
    (synthlang, "synthesize_utterance", "synthlang.synthesize_utterance", _count_synthesized),
    (synthlang, "featurize", "synthlang.featurize", _count_featurized),
    (synthlang, "load_examples", "synthlang.load_examples", None),
    (synthlang, "read_wav", "audio.read_wav", _count_read),
    (synthlang, "write_wav", "audio.write_wav", _count_written),
    (synthlang, "read_manifest", "manifest.read_manifest", _count_manifest_read),
    (synthlang, "write_manifest", "manifest.write_manifest", _count_manifest_written),
    (audio, "read_wav", "audio.read_wav", _count_read),
    (audio, "write_wav", "audio.write_wav", _count_written),
    (audio, "read_manifest", "manifest.read_manifest", _count_manifest_read),
    (audio, "write_manifest", "manifest.write_manifest", _count_manifest_written),
    (audio, "augment_dataset", "audio.augment_dataset", _count_augment_failures),
    (audio, "augment_clip", "audio.augment_clip", _count_augmented),
    (audio, "time_stretch", "audio.time_stretch", None),
    (audio, "pitch_shift", "audio.pitch_shift", None),
    (model, "load_examples", "synthlang.load_examples", None),
    (model, "run_phase", "model.run_phase", None),
    (model, "train_step", "model.train_step", _count_train_frames),
    (model, "build_inputs", "model.build_inputs", None),
    (model, "forward", "model.forward", None),
    (model, "validation_losses", "model.validation_losses", None),
    (model, "decode", "model.decode", None),
    (model, "save_checkpoint", "model.save_checkpoint", _count_checkpoint_bytes),
    (model, "load_checkpoint", "model.load_checkpoint", None),
    (schedule.Weighting, "decide", "schedule.decide", _count_branch),
    (loss, "combine_sentence_losses", "loss.combine_sentence_losses", None),
    (metrics, "edit_distance", "metrics.edit_distance", _count_dp_cells),
    (metrics, "corpus_wer", "metrics.corpus_wer", None),
    (metrics, "write_eval_csv", "metrics.write_eval_csv", None),
    (metrics, "report", "metrics.report", None),
]


class Tracer:
    """Spans and counts of one traced execution (a set-up or a pass)."""

    def __init__(self, label: str, t0: float):
        self.label = label
        self.t0 = t0
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._saved: list[tuple] = []
        self._durations: dict[str, list[float]] | None = None

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, hook in BINDINGS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def durations(self, name: str) -> list[float]:
        """Durations of the spans named ``name``; read only once tracing has ended."""
        if self._durations is None:
            self._durations = {}
            for n, s, e in zip(self.names, self.starts, self.ends):
                self._durations.setdefault(n, []).append(e - s)
        return self._durations.get(name, [])

    def self_times(self, name: str) -> list[float]:
        child_time = [0.0] * len(self.starts)
        for s, e, p in zip(self.starts, self.ends, self.parents):
            if p >= 0:
                child_time[p] += e - s
        return [
            e - s - child_time[i]
            for i, (n, s, e) in enumerate(zip(self.names, self.starts, self.ends))
            if n == name
        ]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def call_counts(self) -> Counter:
        return Counter(self.names)

    def to_json(self) -> dict:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        return {
            "label": self.label,
            "names": table,
            "spans": [
                [index[n], round(s - self.t0, 9), round(e - self.t0, 9), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counts": dict(self.counts),
        }


def tail_percentile(n: int) -> float:
    """Highest of the reported percentiles that still has at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - q / 100) >= 10:
            return q
    return 50.0


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


# Every per-layer metric with its unit, in output order. Layers a workload does not
# exercise read 0.
PER_LAYER_UNITS = {
    "synthlang.synthesize_s": "s",
    "synthlang.audio_s_synthesized": "s",
    "synthlang.featurize_s": "s",
    "synthlang.frames_featurized": "count",
    "synthlang.load_examples_s": "s",
    "audio.read_wav_s": "s",
    "audio.wav_bytes_read": "B",
    "audio.write_wav_s": "s",
    "audio.wav_bytes_written": "B",
    "audio.augment_clip_ms_per_audio_s": "ms/s",
    "audio.time_stretch_s": "s",
    "audio.pitch_shift_s": "s",
    "audio.clips_augmented": "count",
    "audio.augment_failures": "count",
    "manifest.read_s": "s",
    "manifest.write_s": "s",
    "manifest.entries": "count",
    "model.train_steps": "count",
    "model.frames_per_step": "count",
    "model.train_step_ms_p50": "ms",
    "model.train_step_ms_tail": "ms",
    "model.train_step_n": "count",
    "model.build_inputs_s": "s",
    "model.step_self_ms_p50": "ms",
    "model.validation_s": "s",
    "model.checkpoint_save_s": "s",
    "model.checkpoint_load_s": "s",
    "model.checkpoint_bytes": "B",
    "model.decode_ms_per_utt_p50": "ms",
    "model.decode_ms_per_utt_tail": "ms",
    "model.decode_n": "count",
    "model.forward_s": "s",
    "schedule.decide_calls": "count",
    "schedule.decide_us_p50": "us",
    **{f"schedule.branch.{b.value}": "count" for b in Branch},
    "loss.combine_calls": "count",
    "loss.combine_us_p50": "us",
    "metrics.edit_distance_s": "s",
    "metrics.dp_cells": "count",
    "metrics.report_s": "s",
    "stage.train_frames_per_s": "1/s",
    "stage.augment_audio_s_per_s": "s/s",
    "stage.eval_utts_per_s": "1/s",
    "quality.low_wer_pct": "%",
    "quality.mean_wer_pct": "%",
    "quality.low_wer_reduction_pct": "%",
    "run.failed_ratio": "ratio",
    "run.peak_rss_mb": "MB",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.spans_per_pass": "count",
}


def pass_signature(tracer: Tracer) -> dict:
    """What must repeat exactly from one traced pass to the next: call and work counts."""
    sig = {f"calls:{k}": v for k, v in tracer.call_counts().items()}
    sig.update({k: round(v, 6) for k, v in tracer.counts.items()})
    return sig


def layer_metrics(setup: Tracer, passes: list[Tracer]) -> dict[str, float]:
    """Per-layer values for one workload execution: the traced set-up plus one traced pass.

    Time and work totals are the set-up's plus the median over traced passes; per-call
    percentiles pool the set-up's calls with every traced pass's.
    """
    every = [setup, *passes]

    def total(name):
        return setup.total(name) + statistics.median(t.total(name) for t in passes)

    def count(key):
        return setup.counts[key] + statistics.median(t.counts[key] for t in passes)

    def calls(name):
        return setup.call_counts()[name] + statistics.median(t.call_counts()[name] for t in passes)

    def pooled(name, self_time=False):
        return [d for t in every for d in (t.self_times(name) if self_time else t.durations(name))]

    train_ms = [1e3 * d for d in pooled("model.train_step")]
    decode_ms = [1e3 * d for d in pooled("model.decode")]
    steps = calls("model.train_step")
    augment_input_s = count("audio.augment_input_s")
    out = {
        "synthlang.synthesize_s": total("synthlang.synthesize_utterance"),
        "synthlang.audio_s_synthesized": count("synthlang.audio_s_synthesized"),
        "synthlang.featurize_s": total("synthlang.featurize"),
        "synthlang.frames_featurized": count("synthlang.frames_featurized"),
        "synthlang.load_examples_s": total("synthlang.load_examples"),
        "audio.read_wav_s": total("audio.read_wav"),
        "audio.wav_bytes_read": count("audio.wav_bytes_read"),
        "audio.write_wav_s": total("audio.write_wav"),
        "audio.wav_bytes_written": count("audio.wav_bytes_written"),
        "audio.augment_clip_ms_per_audio_s": (
            1e3 * total("audio.augment_clip") / augment_input_s if augment_input_s else 0.0
        ),
        "audio.time_stretch_s": total("audio.time_stretch"),
        "audio.pitch_shift_s": total("audio.pitch_shift"),
        "audio.clips_augmented": count("audio.clips_augmented"),
        "audio.augment_failures": count("audio.augment_failures"),
        "manifest.read_s": total("manifest.read_manifest"),
        "manifest.write_s": total("manifest.write_manifest"),
        "manifest.entries": count("manifest.entries"),
        "model.train_steps": steps,
        "model.frames_per_step": count("model.train_frames") / steps if steps else 0.0,
        "model.train_step_ms_p50": percentile(train_ms, 50),
        "model.train_step_ms_tail": percentile(train_ms, tail_percentile(len(train_ms))),
        "model.train_step_n": len(train_ms),
        "model.build_inputs_s": total("model.build_inputs"),
        "model.step_self_ms_p50": percentile([1e3 * d for d in pooled("model.train_step", self_time=True)], 50),
        "model.validation_s": total("model.validation_losses"),
        "model.checkpoint_save_s": total("model.save_checkpoint"),
        "model.checkpoint_load_s": total("model.load_checkpoint"),
        "model.checkpoint_bytes": count("model.checkpoint_bytes"),
        "model.decode_ms_per_utt_p50": percentile(decode_ms, 50),
        "model.decode_ms_per_utt_tail": percentile(decode_ms, tail_percentile(len(decode_ms))),
        "model.decode_n": len(decode_ms),
        "model.forward_s": total("model.forward"),
        "schedule.decide_calls": calls("schedule.decide"),
        "schedule.decide_us_p50": percentile([1e6 * d for d in pooled("schedule.decide")], 50),
        **{f"schedule.branch.{b.value}": count(f"schedule.branch.{b.value}") for b in Branch},
        "loss.combine_calls": calls("loss.combine_sentence_losses"),
        "loss.combine_us_p50": percentile([1e6 * d for d in pooled("loss.combine_sentence_losses")], 50),
        "metrics.edit_distance_s": total("metrics.edit_distance"),
        "metrics.dp_cells": count("metrics.dp_cells"),
        "metrics.report_s": total("metrics.report"),
    }
    return out
