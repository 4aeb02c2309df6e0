"""The benchmark's workloads: the CLI calls each one makes, from a seed, and
the checks on what those calls print and write.

Every workload is a fixed list of ``batchfrag.cli.main`` argument lists.
The same seed always gives the same list. Why each workload exists is in
``NOTES.md`` beside this file.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from batchfrag.model import ModelParams
from batchfrag.montecarlo import EstimateConfig, trial_recalls
from batchfrag.seeding import derive_seed
from batchfrag.simulation import TrialConfig, run_trial

# The validate grid is fixed by the CLI: orders 1..50 x batches 1..100.
VALIDATE_CELLS = 50 * 100

# validate's checkpoint gate is a 3-sigma test, so correct code fails it on
# about 0.2% of seeds. These are the seeds in 0..999 where it does, by trial
# count; the workload steps past them so that a FAIL means changed behaviour.
VALIDATE_FALSE_ALARMS = {10_000: frozenset({148, 224}), 1_000: frozenset({25})}

# Trials of each large-q point checked against the object-level simulator.
SAMPLED_TRIALS = 6

_SIM_MEAN = re.compile(r"^\s*simulated_mean\s+(\S+)$", re.MULTILINE)
_DUMP_RECALL = re.compile(r"^recalled quantity: (\d+) of \d+$", re.MULTILINE)


@dataclass
class Workload:
    name: str
    seed: int
    calls: list[list[str]]
    cells: int                      # grid cells or simulate points per repetition
    trials: int                     # Monte Carlo trials per repetition
    outputs: dict[Path, int] = field(default_factory=dict)  # file -> line count
    points: list[tuple] = field(default_factory=list)       # large-q (O, B, Q, p, n)
    # The hostspeed.py kernel that slows down on a busy host as this does.
    pace: str = "numpy-arrays"

    def check_rep(self, results: list[tuple]) -> list[tuple[str, bool]]:
        """Checks on one repetition: exit statuses, verdicts, file sizes."""
        checks = [(f"{argv[0]} exits 0", rc == 0)
                  for argv, (rc, _, _) in zip(self.calls, results)]
        if self.name.startswith("validate"):
            checks.append(("RESULT PASS", "RESULT PASS" in results[0][1]))
        for path, lines in self.outputs.items():
            ok = path.is_file() and _line_count(path) == lines
            checks.append((f"{path.name} has {lines} lines", ok))
        return checks

    def check_run(self, results: list[tuple]) -> list[tuple[str, bool]]:
        """Once per run: each large-q point's kernel recalls against the
        printed mean and against ``run_trial`` on sampled trials."""
        checks = []
        rng = random.Random(self.seed)
        for (o, b, q, p, n), (_, out, _) in zip(self.points, results):
            params = ModelParams(o, b, q, p)
            recalls = trial_recalls(EstimateConfig(params, n, self.seed))
            printed = _SIM_MEAN.search(out)
            checks.append((f"simulated_mean O={o} B={b}", printed is not None
                           and printed.group(1) == f"{int(recalls.sum()) / n:.6f}"))
            dumped = _DUMP_RECALL.search(out)
            if dumped is not None:
                checks.append((f"dump-trial O={o} B={b}",
                               int(dumped.group(1)) == int(recalls[0])))
            sample = [0, n - 1] + rng.sample(range(1, n - 1), SAMPLED_TRIALS - 2)
            for i in sample:
                trial = TrialConfig.from_seed(params, derive_seed(self.seed, i))
                checks.append((f"trial {i} O={o} B={b}",
                               int(recalls[i]) == run_trial(trial)))
        return checks


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _validate_seed(seed: int, n_trials: int) -> int:
    vseed = seed % 1000
    while vseed in VALIDATE_FALSE_ALARMS[n_trials]:
        vseed += 1
    return vseed


def _validate(name: str, seed: int, workdir: Path, n_trials: int) -> Workload:
    vseed = _validate_seed(seed, n_trials)
    out = workdir / "validate.csv"
    # At 1,000 trials the fixed cost of each numpy call dominates.
    pace = "numpy-calls" if n_trials <= 1_000 else "numpy-arrays"
    return Workload(
        name, vseed,
        calls=[["validate", "-n", str(n_trials), "--seed", str(vseed),
                "--out", str(out)]],
        cells=VALIDATE_CELLS, trials=VALIDATE_CELLS * n_trials,
        outputs={out: VALIDATE_CELLS + 2}, pace=pace)


def _large_q(seed: int, workdir: Path, tiny: bool) -> Workload:
    rng = random.Random(seed)
    p = round(rng.uniform(0.05, 0.3), 4)
    q, n, n_dump = (300, 50, 20) if tiny else (6000, 2000, 200)
    # Many batches and orders; orders >> batches; batches >> orders; and the
    # object-level simulator through --dump-trial.
    points = [(1, 1, q, p, n // 2), (1, 100, q, p, n), (100, 1, q, p, n),
              (2, 3, q, p, n_dump)]
    calls = [["simulate", "-O", str(o), "-B", str(b), "-Q", str(q),
              "-p", str(p), "-n", str(trials), "--seed", str(seed)]
             for o, b, _, _, trials in points]
    calls[-1].append("--dump-trial")
    return Workload("large-q", seed, calls, cells=len(points),
                    trials=sum(pt[-1] for pt in points), points=points)


def _analytic_surface(seed: int, workdir: Path, tiny: bool) -> Workload:
    rng = random.Random(seed)
    probs = [f"{k / 1000:g}" for k in sorted(rng.sample(range(10, 301), 4))]
    q, b_max = (100, 10) if tiny else (1000, 50)
    out = workdir / "surface.csv"
    return Workload(
        "analytic-surface", seed,
        calls=[["sweep", "--analytic-only", "--crisis-probs", ",".join(probs),
                "-Q", str(q), "--order-range", f"1:{q}",
                "--batch-range", f"1:{b_max}", "--out", str(out)]],
        cells=len(probs) * q * b_max, trials=0,
        outputs={workdir / f"surface_p{p}.csv": q * b_max + 2 for p in probs},
        pace="interpreter")


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed``, writing its files under ``workdir``.

    ``tiny`` shrinks every input so the whole benchmark runs in seconds.
    """
    if name == "validate-full":
        return _validate(name, seed, workdir, 1_000 if tiny else 10_000)
    if name == "validate-quick":
        return _validate(name, seed, workdir, 1_000)
    if name == "large-q":
        return _large_q(seed, workdir, tiny)
    if name == "analytic-surface":
        return _analytic_surface(seed, workdir, tiny)
    raise ValueError(f"unknown workload {name!r}")
