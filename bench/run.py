"""Benchmark for langwce: two workloads over the package's public functions.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-grid --seed 1 --seconds 55 --trace 0

Workloads: paper-grid and augment-da (see bench/README.md). Each run
sets up the workload, then repeats its pass for --seconds seconds (at least
twice), sets the workload up again between passes (at least three set-ups in
all), and checks every pass's outputs and result digest. Times are reported
in reference seconds, scaled by a fixed loop timed after each set-up and pass
(see reference_scale). The last line of
standard output is one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics. --trace 1 alternates
untraced and traced passes, reports the per-layer metrics and writes the spans
to .bench_work/trace-<workload>-seed<seed>.json. The exit code is 0 when every
check passed and 1 otherwise.
"""

import os

# Results are bit-identical only at one BLAS thread count, which must be set
# before numpy is imported. One thread is also the fastest on this model's
# small matrix products.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3  # at least, spread over the run
SETUP_SHARE = 0.25  # a further set-up runs between passes while the set-ups' reference time is under this share of the passes' wall time
MIN_PASSES = 2  # the digest must repeat across passes
TRIM = 0.1  # share of the pass times dropped at each end before they are averaged
REFERENCE_S = 0.05  # a reference second is a wall second times REFERENCE_S over the reference loop's wall time
WORKLOAD_NAMES = ("paper-grid", "augment-da")
E2E_UNITS = {"setup_s": "s", "pass_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full", help="smoke: tiny inputs for the benchmark's own test")
    return p.parse_args(argv)


def load_program() -> None:
    src = ROOT / "src"
    if not (src / "langwce" / "__init__.py").is_file():
        sys.exit(f"bench: no langwce package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def stage_of(unit: str) -> str:
    return unit.split("/")[0]


def trimmed_mean(values) -> float:
    """Mean of ``values`` without the highest and the lowest TRIM share of them."""
    values = sorted(values)
    k = int(len(values) * TRIM)
    kept = values[k : len(values) - k]
    return sum(kept) / len(kept)


def typical(passes: list[dict], stage: str | None = None) -> float:
    """Sum over the units (of one stage, if given) of each unit's trimmed mean time over ``passes``."""
    return sum(trimmed_mean(p[name] for p in passes) for name in passes[0] if stage in (None, stage_of(name)))


def reference_scale() -> float:
    """Reference seconds per wall second now: REFERENCE_S over the wall time of a fixed loop outside the program.

    The loop mixes interpreted Python with numpy array work, as both workloads
    do. Timed right after each set-up and pass, it tracks how fast the shared
    host runs at that moment.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i
    x = np.arange(20_000, dtype=np.float64)
    for _ in range(60):
        windows = np.lib.stride_tricks.sliding_window_view(x, 400)[:321]
        (windows @ x[:400]) / np.sqrt((windows**2).sum(axis=1))
    return REFERENCE_S / (time.perf_counter() - start)


def left_running() -> bool:
    """Whether threads or child processes outlive a pass; they would slow the reference loop."""
    return threading.active_count() > 1 or bool(multiprocessing.active_children())


def active(tracer):
    return tracer if tracer is not None else nullcontext()


def set_up(wl, ops, run_dir: Path, tracing, t0: float):
    """Set the workload up once; returns the time taken, the state and, if traced, the tracer."""
    setup_dir = fresh(run_dir / "setup")
    tracer = tracing.Tracer("setup", t0) if tracing else None
    with active(tracer):
        start = time.perf_counter()
        span = tracer.open("bench.setup") if tracer else None
        state = wl.setup(setup_dir, ops)
        if span is not None:
            tracer.close(span)
        seconds = time.perf_counter() - start
    return seconds, state, tracer


def run_passes(wl, state, ops, run_dir: Path, seconds: float, tracing, t0: float, setups: list[float] | None) -> dict:
    """Repeat the pass for ``seconds``, alternating untraced and traced passes when ``tracing`` is given.

    If ``setups`` (the set-up times so far, in reference seconds) is given, the
    workload is set up again between passes, at least SETUP_REPEATS times in
    all, and whenever their reference time is less than SETUP_SHARE of the
    passes' wall time (the two are close, see REFERENCE_S); the times are appended to ``setups`` and the passes use the newest
    state. Returns the per-unit times, in reference seconds, of the untraced and
    the traced passes, the tracers, the wall time of each pass, the check
    problems, the digests and the quality figures of the last pass.
    """
    from workloads import Units

    out = {"plain": [], "traced": [], "tracers": [], "totals": [], "scales": [], "problems": [], "digests": set(), "quality": {}}
    started = time.perf_counter()
    set_up_last = True
    while True:
        n_plain, n_traced = len(out["plain"]), len(out["traced"])
        enough = n_plain >= MIN_PASSES and (not tracing or n_traced >= MIN_PASSES)
        timed_out = time.perf_counter() - started >= seconds
        if setups is not None and not set_up_last:
            if len(setups) < SETUP_REPEATS and enough and timed_out or sum(setups) < SETUP_SHARE * sum(out["totals"]):
                taken, state, _ = set_up(wl, ops, run_dir, None, t0)
                if state is None:
                    out["problems"].append("set-up failed")
                    return out
                setups.append(taken * reference_scale())
                set_up_last = True
                continue
        if enough and timed_out and (setups is None or len(setups) >= SETUP_REPEATS):
            return out
        set_up_last = False
        tracer = tracing.Tracer(f"pass{n_plain + n_traced}", t0) if tracing and n_traced < n_plain else None
        out_dir = fresh(run_dir / "out")
        units = Units(tracer)
        with active(tracer):
            start = time.perf_counter()
            span = tracer.open("bench.pass") if tracer else None
            result = wl.run(state, out_dir, units, ops)
            if span is not None:
                tracer.close(span)
            out["totals"].append(time.perf_counter() - start)
        scale = reference_scale()
        out["scales"].append(scale)
        scaled = {name: wall * scale for name, wall in units.seconds.items()}
        if tracer:
            out["traced"].append(scaled)
            out["tracers"].append(tracer)
        else:
            out["plain"].append(scaled)
        found, out["quality"] = wl.check(state, result)
        if left_running():
            found.append("threads or child processes were left running after a pass")
        out["problems"] += [p for p in found if p not in out["problems"]]
        out["digests"].add(wl.digest(state, result))


def per_layer(tracing, setup_tracer, passes: dict, ops) -> dict[str, float]:
    tracers, plain = passes["tracers"], passes["plain"]

    def rate(work, stage):
        seconds = typical(plain, stage)
        return work / seconds if seconds else 0.0

    def pass_work(counts):
        return statistics.median(counts(t) for t in tracers)

    values = dict.fromkeys(tracing.PER_LAYER_UNITS, 0.0)
    values.update(tracing.layer_metrics(setup_tracer, tracers))
    values.update(passes["quality"])
    values.update(
        {
            "stage.train_frames_per_s": rate(pass_work(lambda t: t.counts["model.train_frames"]), "train"),
            "stage.augment_audio_s_per_s": rate(pass_work(lambda t: t.counts["audio.augment_input_s"]), "augment"),
            "stage.eval_utts_per_s": rate(pass_work(lambda t: t.call_counts()["model.decode"]), "eval"),
            "run.failed_ratio": ops.failed / ops.attempted if ops.attempted else 0.0,
            "run.peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "trace.pass_s": typical(passes["traced"]),
            "trace.overhead_s": typical(passes["traced"]) - typical(plain),
            "trace.spans_per_pass": statistics.median(len(t.starts) for t in tracers),
        }
    )
    return values


def measure(args, run_dir: Path) -> dict:
    import tracing
    import workloads

    wl = workloads.make(args.workload, args.seed, args.scale)
    ops = workloads.Ops()
    trace = tracing if args.trace else None
    t0 = time.perf_counter()
    taken, state, setup_tracer = set_up(wl, ops, run_dir, trace, t0)
    setup_times = [taken * reference_scale()]
    if state is None:
        return {"digest": "none", "problems": ["set-up failed"], "errors": ops.errors, "timings": {"setup_s": setup_times},
                "result": {"correct": False, "attempted": max(ops.attempted, 1), "failed": ops.failed, "metrics": {}}}
    passes = run_passes(wl, state, ops, run_dir, args.seconds, trace, t0, None if args.trace else setup_times)

    problems, digests = passes["problems"], passes["digests"]
    if any(set(p) != set(passes["plain"][0]) for p in passes["plain"] + passes["traced"]):
        problems.append("passes ran different units")
    if len(digests) > 1:
        problems.append(f"result digest differs between passes: {sorted(digests)}")
    signatures = [tracing.pass_signature(t) for t in passes["tracers"]]
    if any(sig != signatures[0] for sig in signatures):
        problems.append("call or work counts differ between traced passes")
    digest = digests.pop() if len(digests) == 1 else "none"

    if args.trace:
        values, units = per_layer(tracing, setup_tracer, passes, ops), tracing.PER_LAYER_UNITS
        trace_file = {
            "workload": args.workload,
            "seed": args.seed,
            "digest": digest,
            "environment": environment(),
            "executions": [t.to_json() for t in [setup_tracer, *passes["tracers"]]],
            "metrics": values,
        }
        (WORK / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(trace_file))
    else:
        values, units = {"setup_s": statistics.median(setup_times), "pass_s": typical(passes["plain"])}, E2E_UNITS
    return {
        "digest": digest,
        "problems": problems,
        "errors": ops.errors,
        "timings": {
            "setup_s": setup_times,
            "pass_wall_s": passes["totals"],
            "reference_scale": passes["scales"],
            "typical_units_s": {stage: typical(passes["plain"], stage) for stage in sorted(map(stage_of, passes["plain"][0]))},
        },
        "result": {
            "correct": not problems,
            "attempted": max(ops.attempted, 1),
            "failed": ops.failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        outcome = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"bench: timings {json.dumps(outcome['timings'])}", file=sys.stderr)
    for err in dict.fromkeys(outcome["errors"]):
        print(f"bench: failed operation: {err}", file=sys.stderr)
    for problem in outcome["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"digest {args.workload} {outcome['digest']}")
    print(json.dumps(outcome["result"]), flush=True)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
