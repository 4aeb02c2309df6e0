"""Benchmark for batchfrag: times CLI workloads end to end, or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. One process runs the workload's CLI calls (``batchfrag.cli.main``)
over and over for at least ``--seconds`` seconds and at least twice, then
checks every output. The process pins itself to one CPU. ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, with every time
scaled to a fixed host speed (see ``hostspeed.py``). ``--trace 1`` first
repeats the workload untraced for half the time, then traced (see
``spans.py``) for the other half, and reports the per-layer metrics; its
spans go to ``perfbench/_work/``.
``--tiny`` shrinks every input, for the smoke test.

Human-readable lines come first on stdout; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit status is 0 whenever that line is printed, and 2 when the package
cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from hostspeed import Pace
from spans import KernelPeaks, Tracer, installed, summarize, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"

WORKLOADS = ("validate-full", "validate-quick", "large-q", "analytic-surface")
SETUP_PROBES = 9   # timed set-ups per run, after one that warms the caches
MIN_REPS = 2       # repetitions per run, so reruns can be compared
PACE_INTERVAL = 0.05  # seconds between host-speed samples in a repetition
SETUP_PACE_INTERVAL = 0.01  # and in a set-up probe, which is much shorter

_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import batchfrag.cli; "
          "sys.stdout.write('ready\\n'); sys.stdout.flush()")


def probe_setup() -> Pace:
    """Time from starting a fresh interpreter until ``batchfrag.cli`` is
    imported and a first CLI call could be made.

    The child inherits this process's single CPU, so the host-speed samples
    taken here while it starts measure the CPU it runs on; the time they
    take from the child is removed again by ``Pace.work_s``. Starting an
    interpreter slows down on a busy host about as the kernel of many small
    numpy calls does."""
    with Pace("numpy-calls", SETUP_PACE_INTERVAL) as pace:
        child = subprocess.Popen([sys.executable, "-c", _PROBE, str(SRC)],
                                 stdin=subprocess.DEVNULL,
                                 stdout=subprocess.PIPE, text=True)
        try:
            ready = child.stdout.readline()
        except BaseException:
            child.kill()
            child.wait()
            raise
    with child:
        child.wait(timeout=60)
    if ready != "ready\n" or child.returncode != 0:
        raise RuntimeError("the set-up probe could not import batchfrag")
    return pace


def call(cli, argv: list[str]) -> tuple:
    """One CLI call with its exit status, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def digest(workload, results: list[tuple]) -> str:
    h = hashlib.sha256()
    for rc, out, _ in results:
        h.update(f"{rc}\n{out}".encode())
    for path in workload.outputs:
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


class Run:
    """Repetitions of one workload, with every check made on them."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.checks: list[tuple[str, bool]] = []
        self.first_results = None
        self._first_digest = None

    def repeat(self, seconds: float, min_reps: int, recorder_cls=None,
               modules=(), pace_interval=None) -> list[tuple]:
        """Repeat the workload for ``seconds`` and ``min_reps`` times or more;
        return (:class:`Pace` timing, recorder) per repetition."""
        reps = []
        started = perf_counter()
        while len(reps) < min_reps or perf_counter() - started < seconds:
            for path in self.workload.outputs:
                path.unlink(missing_ok=True)
            recorder = recorder_cls() if recorder_cls else None
            pace, results = self._once(recorder, modules, pace_interval)
            reps.append((pace, recorder))
            self._check(results)
        return reps

    def _once(self, recorder, modules, pace_interval):
        def body():
            return [call(self.cli, argv) for argv in self.workload.calls]

        with installed(recorder, modules) if recorder else nullcontext():
            with Pace(self.workload.pace, pace_interval) as pace:
                results = recorder.run(body) if recorder else body()
        return pace, results

    def _check(self, results):
        for rc, _, err in results:
            if rc != 0:
                sys.stderr.write(err)
        self.checks += self.workload.check_rep(results)
        if self.first_results is None:
            self.first_results = results
            self._first_digest = digest(self.workload, results)
        else:
            self.checks.append(("same output as the first repetition",
                                digest(self.workload, results)
                                == self._first_digest))

    def finish(self) -> dict:
        self.checks += self.workload.check_run(self.first_results)
        failed = [name for name, ok in self.checks if not ok]
        for name in failed:
            print(f"FAILED check: {name}")
        return {"attempted": len(self.checks), "failed": len(failed)}


def end_to_end(run: Run, setup: list[Pace], seconds: float) -> dict:
    """End-to-end metrics, every time scaled to the reference host speed
    (``hostspeed.py``)."""
    wl = run.workload
    reps = [pace for pace, _ in run.repeat(seconds, MIN_REPS,
                                           pace_interval=PACE_INTERVAL)]
    wall = statistics.median(p.scaled_s for p in reps)
    counts = run.finish()
    metrics = {
        "setup_s": (statistics.median(p.scaled_s for p in setup), "s"),
        "wall_s": (wall, "s"),
        "cells_per_s": (wl.cells / wall, "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
    }
    print(f"repetitions {len(reps)}  cells {wl.cells}  trials {wl.trials}")
    print("wall_s by repetition, scaled",
          " ".join(f"{p.scaled_s:.4f}" for p in reps))
    print("wall_s by repetition, unscaled",
          " ".join(f"{p.work_s:.4f}" for p in reps))
    print(f"unscaled medians: wall_s {statistics.median(p.work_s for p in reps):.6g} s"
          f"  setup_s {statistics.median(p.work_s for p in setup):.6g} s")
    print(f"trials_per_s {wl.trials / wall:.6g} 1/s"
          + ("  (no trials in this workload)" if not wl.trials else ""))
    print(f"error_rate {counts['failed'] / counts['attempted']:.6g}"
          f"  ({counts['failed']} of {counts['attempted']} operations)")
    return {**counts, "metrics": metrics}


def per_layer(run: Run, seconds: float, modules: tuple) -> dict:
    plain = run.repeat(seconds / 2, 1)
    traced = run.repeat(seconds / 2, 1, Tracer, modules)
    tracers = [t for _, t in traced]
    summaries = [summarize(t) for t in tracers]
    counts = tracers[0].counts
    run.checks.append(("work counts repeat in every traced repetition",
                       all(t.counts == counts for t in tracers)))
    peaks = []
    if counts["montecarlo.trials"]:
        [(_, kernel_peaks)] = run.repeat(0, 1, KernelPeaks, modules)
        peaks = kernel_peaks.peaks
    status = run.finish()

    # Span metrics come from one repetition, the median by wall time, so
    # that its layers' self times add up exactly to its wall time.
    middle = sorted(summaries, key=lambda s: s["wall_s"])[
        (len(summaries) - 1) // 2]

    def span(name, key):
        return middle["spans"].get(name, {}).get(key, 0.0)

    def per(numerator_s, count):
        return numerator_s * 1e9 / count if count else 0.0

    kernel = "montecarlo.trial_recalls"
    samples = np.concatenate([s["durations"].get(kernel, np.empty(0))
                              for s in summaries]) * 1e3

    def pct(q):
        return float(np.percentile(samples, q)) if len(samples) else 0.0

    kernel_self = span(kernel, "self_s")
    seeding_s = (span("seeding.stream_outputs", "s")
                 + span("seeding.unit_floats", "s"))
    plain_wall = statistics.median(p.wall for p, _ in plain)
    traced_wall = statistics.median(p.wall for p, _ in traced)

    m = {
        "cli.main.self_s": (span("cli.main", "self_s"), "s"),
        "montecarlo.sweep.self_s": (span("montecarlo.sweep", "self_s"), "s"),
        "montecarlo.estimate_recall.self_s":
            (span("montecarlo.estimate_recall", "self_s"), "s"),
        f"{kernel}.self_s": (kernel_self, "s"),
        f"{kernel}.calls": (span(kernel, "calls"), "count"),
        f"{kernel}.samples": (len(samples), "count"),
        f"{kernel}.p50_ms": (pct(50), "ms"),
        f"{kernel}.p99_ms": (pct(99), "ms"),
        f"{kernel}.peak_mib": (max(peaks, default=0) / 2**20, "MiB"),
        "montecarlo.trials": (counts["montecarlo.trials"], "count"),
        "montecarlo.order_slots": (counts["montecarlo.order_slots"], "count"),
        "montecarlo.batch_slots": (counts["montecarlo.batch_slots"], "count"),
        "montecarlo.ns_per_order_slot":
            (per(kernel_self, counts["montecarlo.order_slots"]), "ns"),
        "montecarlo.ns_per_batch_slot":
            (per(kernel_self, counts["montecarlo.batch_slots"]), "ns"),
        "seeding.derive_seed.s": (span("seeding.derive_seed", "s"), "s"),
        "seeding.derive_seeds.s": (span("seeding.derive_seeds", "s"), "s"),
        "seeding.stream_outputs.s": (span("seeding.stream_outputs", "s"), "s"),
        "seeding.unit_floats.s": (span("seeding.unit_floats", "s"), "s"),
        "seeding.outputs": (counts["seeding.outputs"], "count"),
        "seeding.ns_per_output": (per(seeding_s, counts["seeding.outputs"]),
                                  "ns"),
        "seeding.bytes_computed": (counts["seeding.bytes_computed"], "bytes"),
        "model.expected_recall_size.calls":
            (span("model.expected_recall_size", "calls"), "count"),
        "model.expected_recall_size.s":
            (span("model.expected_recall_size", "s"), "s"),
        "simulation.run_trial_outcome.s":
            (span("simulation.run_trial_outcome", "s"), "s"),
        "report.render_summary.s": (span("report.render_summary", "s"), "s"),
        "report.render_outcome.s": (span("report.render_outcome", "s"), "s"),
        "report.write_sweep.s": (span("report.write_sweep", "s"), "s"),
        "report.bytes_written": (counts["report.bytes_written"], "bytes"),
    }
    for layer in ("bench", "cli", "montecarlo", "seeding", "model",
                  "simulation", "report"):
        m[f"layer.{layer}.self_s"] = (middle["layers"].get(layer, 0.0), "s")
    m["trace.wall_s"] = (middle["wall_s"], "s")
    m["trace.spans"] = (middle["spans_total"], "count")
    m["trace.overhead_pct"] = (100.0 * (traced_wall / plain_wall - 1.0), "%")

    spans_path = WORK / run.workload.name / "spans.npz"
    write_spans(tracers, spans_path)
    print(f"repetitions {len(plain)} untraced, {len(traced)} traced,"
          f" {1 if peaks else 0} for memory;"
          f" spans in {spans_path.relative_to(ROOT)}")
    return {**status, "metrics": m}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (for the smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "batchfrag" / "__init__.py").is_file():
        print(f"error: no batchfrag package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Each vCPU of a shared host changes speed on its own, so the run stays
    # on one, and the host-speed samples measure the CPU the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import batchfrag.cli
    import batchfrag.montecarlo
    import workloads

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)  # files of earlier runs
    workdir.mkdir(parents=True)
    run = Run(batchfrag.cli,
              workloads.build(args.workload, args.seed, workdir, args.tiny))
    if args.trace:
        result = per_layer(run, args.seconds,
                           (batchfrag.cli, batchfrag.montecarlo))
    else:
        setup = [probe_setup() for _ in range(SETUP_PROBES + 1)][1:]
        result = end_to_end(run, setup, args.seconds)

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    for name, entry in metrics.items():
        print(f"{args.workload}  {name}  {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
