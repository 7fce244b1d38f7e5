"""signseg benchmark: one workload per process, end-to-end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_gate --seed 1 --seconds 20 --trace 0

With --trace 0 the run sets up several times, then repeats the workload's
operations for --seconds and prints the end-to-end metrics. With --trace 1
it sets up once, runs one untraced and one traced pass, and prints the
per-layer metrics; its counts are per pass, whatever --seconds says.
End-to-end times are scaled to nominal machine speed with the reference
kernels in machine.py; per-layer times are raw. Either way a
human-readable table comes first and the last line is one JSON object.
The exit code is 1 when an output check fails, and 2 when signseg's
sources are not beside the benchmark.
"""
from __future__ import annotations

import os

# One BLAS thread in every workload process, fixed before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from machine import REFERENCE_S, ReferenceClock, environment  # noqa: E402
from tracing import NullTracer, Tracer, rebound  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_signseg():
    """Put the checkout's src/ first on the path; None when it is missing."""
    if not (SRC / "signseg" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import signseg

    if SRC not in Path(signseg.__file__).resolve().parents:
        return None
    return signseg


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


@dataclass
class Counts:
    attempted: int = 0
    failed: int = 0


def run_op(workload, index, tracer, counts: Counts):
    counts.attempted += 1
    try:
        return workload.op(index, tracer)
    except Exception:  # a failed operation is counted, and the run goes on
        counts.failed += 1
        traceback.print_exc()
        return None


def timed_setup(workload, tracer) -> float:
    start = time.perf_counter()
    workload.setup(tracer)
    return time.perf_counter() - start


def measure(workload, seconds: float, clock, counts: Counts) -> tuple[list, float]:
    """Ops until `seconds` have passed and at least one full pass, and two
    ops, are done; train_gate's second op is its same-seed rerun.

    Also returns the peak RSS once those first ops are done: a fixed amount
    of work, where the peak at the end would grow with the passes that fit.
    """
    min_ops = max(2, workload.ops_per_pass())
    null = NullTracer()
    results = []
    start = time.perf_counter()
    while len(results) < min_ops or time.perf_counter() - start < seconds:
        results.append(run_op(workload, len(results), null, counts))
        clock.tick()
        if len(results) == min_ops:
            peak_mb = peak_rss_mb()
    return results, peak_mb


def pass_times(results: list, per_pass: int) -> list[float]:
    return [
        sum(r.seconds for r in results[i : i + per_pass])
        for i in range(0, len(results) - per_pass + 1, per_pass)
        if all(r is not None for r in results[i : i + per_pass])
    ]


def end_to_end(workload, setup_times, results, peak_mb) -> tuple[dict, list]:
    done = [r for r in results if r is not None]
    latency = [t for r in done for t in r.latency]
    seconds = sum(r.seconds for r in done)
    items = sum(r.items for r in done)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_per_s": (items / seconds if seconds else 0.0, "1/s"),
        "latency_p50_s": (statistics.median(latency) if latency else 0.0, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    passes = pass_times(results, workload.ops_per_pass())
    rows = [
        ("setup_s", metrics["setup_s"][0], f"s, median of {len(setup_times)} set-ups"),
        ("run_s", statistics.median(passes) if passes else float("nan"),
         f"s, median of {len(passes)} passes"),
        ("throughput_per_s", metrics["throughput_per_s"][0],
         f"{workload.item_unit}/s, that is {workload.throughput_name}"),
        ("latency_p50_s", metrics["latency_p50_s"][0],
         f"s, {len(latency)} samples, that is {workload.latency_name}"),
    ]
    ingest_s = sum(r.ingest_s for r in done)
    if ingest_s:
        rows.append(("ingest.frames_per_s", sum(r.ingest_frames for r in done) / ingest_s, "frames/s"))
    decode_s = sum(r.decode_s for r in done)
    if decode_s:
        rows.append(("decode.windows_per_s", sum(r.windows for r in done) / decode_s, "windows/s"))
    rows += workload.report()
    rows.append(("peak_rss_mb", peak_mb, "MB, after set-up and the first pass"))
    return metrics, rows


def per_layer(workload, tracer, overhead_s: float, seed: int) -> dict:
    from model_costs import backward_flops, forward_flops, stage_times

    stats = tracer.stats()
    counts = tracer.counts

    def calls(name):
        return stats[name].calls if name in stats else 0

    def total(name):
        return stats[name].total_s if name in stats else 0.0

    def own(name):
        return stats[name].self_s if name in stats else 0.0

    cfg = workload.config
    fwd_flops, bwd_flops = forward_flops(cfg), backward_flops(cfg)
    m = {
        "gradients.backward.calls": (calls("gradients.backward"), "count"),
        "gradients.backward_s": (total("gradients.backward"), "s"),
        "gradients.flops_per_sample": (bwd_flops, "flop"),
        "gradients.gflops_computed": (
            bwd_flops * calls("gradients.backward") / total("gradients.backward") / 1e9
            if total("gradients.backward") else 0.0, "GFLOP/s"),
        "training.adam_step.calls": (calls("training.adam_step"), "count"),
        "training.adam_step_s": (total("training.adam_step"), "s"),
        "training.evaluate_s": (total("training.evaluate"), "s"),
        "training.self_s": (own("training.train"), "s"),
        "training.epochs": (counts["training.epochs"], "count"),
        "model.forward.calls": (calls("model.forward"), "count"),
        "model.forward_s": (total("model.forward"), "s"),
        "model.flops_per_window": (fwd_flops, "flop"),
        "model.gflops_computed": (
            fwd_flops * calls("model.forward") / total("model.forward") / 1e9
            if total("model.forward") else 0.0, "GFLOP/s"),
    }
    for name, value in stage_times(cfg, seed).items():
        m[name] = (value, "s")
    m.update({
        "segmentation.slide_s": (total("segmentation.slide"), "s"),
        "segmentation.window_probs_self_s": (own("segmentation.window_probs"), "s"),
        "segmentation.post_process_s": (total("segmentation.post_process"), "s"),
        "segmentation.report_self_s": (own("segmentation.report"), "s"),
        "segmentation.windows": (counts["segmentation.windows"], "count"),
        "segmentation.decoded": (counts["segmentation.decoded"], "count"),
        "keypoints.parse_s": (total("keypoints.parse"), "s"),
        "keypoints.normalize_s": (total("keypoints.normalize"), "s"),
        "keypoints.resample_s": (total("keypoints.resample"), "s"),
        "keypoints.frames": (counts["keypoints.frames"], "count"),
        "keypoints.bytes": (counts["keypoints.bytes"], "B"),
        "serialize.load_s": (total("serialize.load"), "s"),
        "serialize.save_s": (total("serialize.save"), "s"),
        "serialize.bytes": (counts["serialize.bytes"], "B"),
        "synthgen.make_dataset_s": (total("synthgen.make_dataset"), "s"),
        "keypoints.build_streams_s": (total("keypoints.build_streams"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return m


def run(workload_cls, sizes, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run one workload; returns the result object (metrics as (value, unit))."""
    workload = workload_cls(sizes, seed, workdir)
    counts = Counts()
    null = NullTracer()
    if trace:
        tracer = Tracer()
        timed_setup(workload, tracer)
        per_pass = workload.ops_per_pass()
        untraced = [run_op(workload, i, null, counts) for i in range(per_pass)]
        with rebound(tracer):
            traced = [run_op(workload, per_pass + i, tracer, counts) for i in range(per_pass)]
        workload.finish()
        untraced_s = pass_times(untraced, per_pass)
        traced_s = pass_times(traced, per_pass)
        overhead = (traced_s[0] - untraced_s[0]) if untraced_s and traced_s else 0.0
        metrics = per_layer(workload, tracer, overhead, seed)
        rows = [(name, value, unit) for name, (value, unit) in metrics.items()]
    else:
        clock = ReferenceClock(workload.work_mix)
        workload.pause = clock.tick
        setup_times = []
        for _ in range(workload.setups):
            setup_times.append(timed_setup(workload, null))
            clock.tick()
        results, peak_mb = measure(workload, seconds, clock, counts)
        workload.finish()
        factor = clock.factor()
        setup_times = [t * factor for t in setup_times]
        results = [None if r is None else r.scaled(factor) for r in results]
        metrics, rows = end_to_end(workload, setup_times, results, peak_mb)
        for name, median in clock.medians().items():
            rows.append((f"machine.{name}_s", median, f"s, reference kernel; times above are scaled "
                         f"by {factor:.4f} to {REFERENCE_S} s per kernel"))
    return {
        "correct": not workload.errors and counts.failed == 0,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": metrics,
        "rows": rows + [("failed_share", counts.failed / max(counts.attempted, 1), "share")],
        "errors": workload.errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if import_signseg() is None:
        print(f"perfbench: no signseg sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import FULL, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run(WORKLOADS[args.workload], FULL, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment(int(BLAS_THREADS))))
    for name, value, unit in result["rows"]:
        print(f"{name:36s} {value:>16.6g}  {unit}")
    for error in result["errors"]:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
