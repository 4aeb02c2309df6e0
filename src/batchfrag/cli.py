"""Command-line entry point.

Five subcommands cover the user workflows: ``analytic`` evaluates the
closed-form model at one point, ``simulate`` runs a Monte Carlo estimate
and compares it against the closed form, ``sweep`` produces grid CSVs
over order/batch ranges, ``validate`` reruns the reference validation
sweep against fixed checkpoints, and ``fragments`` writes the expected
fragmentation curve for one order size.

Exit statuses are a stable contract: 0 success or validation pass, 1 io
error or out of memory, 2 usage error, 3 validation failure. Every
subcommand is deterministic given its full flag set, including the seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .model import ModelParams, _check_grid, expected_recall_size
from .montecarlo import EstimateConfig, _sweep, estimate_recall, sweep
from .report import (
    render_analytic,
    render_outcome,
    render_summary,
    write_fragments_curve,
    write_sweep,
    write_text,
)
from .seeding import derive_seed
from .simulation import TrialConfig, run_trial_outcome

__all__ = ["main", "build_parser"]

class UsageError(Exception):
    """Bad flag or config input; maps to exit status 2."""


def _probability(text: str) -> float:
    """Parse 0.15 or 15% notation into a probability in [0, 1]."""
    s = text.strip()
    try:
        if s.endswith("%"):
            value = float(s[:-1]) / 100.0
        else:
            value = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a probability: {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"probability {text!r} outside [0, 1]")
    return value


def _probability_list(text: str) -> list[float]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty probability list")
    return [_probability(t) for t in items]


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _int_range(text: str) -> range:
    """Parse an inclusive a:b range of positive integers."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"range must look like a:b, got {text!r}")
    a, b = _integer(lo), _integer(hi)
    if a < 1:
        raise argparse.ArgumentTypeError(f"range start must be >= 1: {text!r}")
    if b < a:
        raise argparse.ArgumentTypeError(f"reversed range: {text!r}")
    return range(a, b + 1)


def _boolean(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")


def _read_config(path: str, command: str) -> dict[str, object]:
    """Read ``key = value`` lines; ``#`` starts a comment line. Keys are the
    long names of ``command``'s own flags, and each value goes through that
    flag's converter in ``_FLAGS``. Returns the values by flag ``dest``,
    ready for ``set_defaults``."""
    flags = _COMMANDS[command][2]
    entries: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise UsageError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}")
            if key not in flags:
                raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
            convert = _FLAGS[key][1] or str
            try:
                entries[key.replace("-", "_")] = convert(value)
            except argparse.ArgumentTypeError as exc:
                raise UsageError(f"config option {key}: {exc}") from exc
    return entries


def _required(args: argparse.Namespace, name: str):
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        raise UsageError(f"missing required option --{name}")
    return value


def _params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(
        order_size=_required(args, "order-size"),
        batch_size=_required(args, "batch-size"),
        total_quantity=_required(args, "quantity"),
        crisis_prob=_required(args, "crisis-prob"),
    )


def _print_and_save(args: argparse.Namespace, text: str) -> None:
    """Print a report and, when --out is set, also write it to that file."""
    sys.stdout.write(text)
    if args.out is not None:
        write_text(args.out, text)


def _cmd_analytic(args: argparse.Namespace) -> int:
    _print_and_save(args, render_analytic(_params(args)))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _params(args)
    estimate = estimate_recall(EstimateConfig(params, args.trials, args.seed))
    analytic = expected_recall_size(params)
    text = render_summary(estimate, analytic, params)
    if args.dump_trial:
        trial = TrialConfig.from_seed(params, derive_seed(args.seed, 0))
        text += "\n" + render_outcome(run_trial_outcome(trial))
    _print_and_save(args, text)
    return 0


def _per_prob_path(out: str, prob: float) -> str:
    path = Path(out)
    return str(path.with_name(f"{path.stem}_p{prob:g}{path.suffix}"))


def _cmd_sweep(args: argparse.Namespace) -> int:
    quantity = _required(args, "quantity")
    # A config file's values are defaults like any other, so this also
    # catches one probability from the file and the other from a flag.
    if args.crisis_prob is not None and args.crisis_probs is not None:
        raise UsageError("--crisis-prob and --crisis-probs are both set;"
                         " give one or the other")
    probs = args.crisis_probs or [_required(args, "crisis-prob")]
    order_sizes = _required(args, "order-range")
    batch_sizes = _required(args, "batch-range")
    out = _required(args, "out")
    if args.divisors_only:
        order_sizes = [o for o in order_sizes if quantity % o == 0]
    paths = [out] if len(probs) == 1 else [_per_prob_path(out, p) for p in probs]
    for i, path in enumerate(paths):
        if path in paths[:i]:
            raise UsageError(f"crisis probabilities {probs[paths.index(path)]!r}"
                             f" and {probs[i]!r} would both write {path}")
    # the grid is checked once for the family; each probability has passed
    # _probability, the same rule the grid check applies to the first
    quantity, _, order_sizes, batch_sizes = _check_grid(
        quantity, probs[0], order_sizes, batch_sizes)
    for prob, path in zip(probs, paths):
        grid = _sweep(quantity, prob, order_sizes, batch_sizes, args.trials,
                      args.seed, not args.analytic_only)
        write_sweep(grid, path)
        print(f"wrote {path}")
        if grid.mean_abs_error_pct is not None:
            print(f"mean_abs_error_pct {grid.mean_abs_error_pct:.6f}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    n_trials, seed = args.trials, args.seed
    quantity, prob = 50, 0.15
    order_sizes, batch_sizes = range(1, 51), range(1, 101)
    grid = sweep(quantity, prob, order_sizes, batch_sizes,
                 n_trials=n_trials, base_seed=seed)
    if args.out is not None:
        write_sweep(grid, args.out)

    print(f"validation sweep  quantity={quantity} crisis_prob={prob:.6f}"
          f" orders=1..50 batches=1..100 trials={n_trials} seed={seed}")
    ok = True
    for o, b in ((1, 1), (50, 1)):
        i, j = o - 1, b - 1
        analytic = grid.analytic[i, j]
        mean = grid.sim_mean[i, j]
        se = grid.std_error[i, j]
        # Near-certain recall can make all trials identical, collapsing the
        # sample SE to 0 while the analytic value sits Q*(1-p)^Q away; the
        # rule-of-three floor keeps the check honest for degenerate samples.
        tolerance = max(3.0 * se, 5.0 * quantity / n_trials)
        passed = abs(mean - analytic) <= tolerance
        ok = ok and passed
        print(f"checkpoint order={o} batch={b}  analytic={analytic:.6f}"
              f"  simulated={mean:.6f}  se={se:.6f}"
              f"  {'PASS' if passed else 'FAIL'}")
    threshold = 2.5 if n_trials >= 10_000 else 6.0
    err_ok = grid.mean_abs_error_pct <= threshold
    ok = ok and err_ok
    print(f"mean_abs_error_pct {grid.mean_abs_error_pct:.6f}"
          f"  threshold {threshold:.1f}  {'PASS' if err_ok else 'FAIL'}")
    print(f"RESULT {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


def _cmd_fragments(args: argparse.Namespace) -> int:
    order_size = _required(args, "order-size")
    batch_sizes = _required(args, "batch-range")
    out = _required(args, "out")
    write_fragments_curve(order_size, batch_sizes, out)
    print(f"wrote {out}")
    return 0


# Every flag, declared once: long name -> (short spelling, converter,
# default, metavar, help). ``_boolean`` marks an on/off flag, which is set
# by its presence; a flag without a converter takes its text as it is.
_FLAGS = {
    "order-size": ("-O", _integer, None, "N", "units per customer order"),
    "batch-size": ("-B", _integer, None, "N", "units per production batch"),
    "quantity": ("-Q", _integer, None, "N", "total ordered quantity"),
    "crisis-prob": ("-p", _probability, None, "P",
                    "batch crisis probability (0.15 or 15%%)"),
    "crisis-probs": (None, _probability_list, None, "P1,P2,...",
                     "one output file per probability"),
    "order-range": (None, _int_range, None, "A:B",
                    "inclusive order-size range"),
    "batch-range": (None, _int_range, None, "A:B",
                    "inclusive batch-size range"),
    "trials": ("-n", _integer, 10_000, "N",
               "trials per parameter point (default %(default)s)"),
    "seed": (None, _integer, 0, "N", "base seed (default %(default)s)"),
    "dump-trial": (None, _boolean, False, None,
                   "render the first trial's fulfillment"),
    "analytic-only": (None, _boolean, False, None,
                      "skip the simulation columns"),
    "divisors-only": (None, _boolean, False, None,
                      "keep only order sizes dividing the quantity"),
    "out": (None, None, None, "PATH",
            "output file; sweep and fragments require it"),
}

_POINT = ("order-size", "batch-size", "quantity", "crisis-prob")

# Each subcommand: its handler, its help line and the flags it takes.
_COMMANDS = {
    "analytic": (_cmd_analytic, "evaluate the closed-form model at one point",
                 (*_POINT, "out")),
    "simulate": (_cmd_simulate,
                 "Monte Carlo estimate at one point vs. closed form",
                 (*_POINT, "trials", "seed", "dump-trial", "out")),
    "sweep": (_cmd_sweep, "grid of recall sizes over order/batch ranges",
              ("quantity", "crisis-prob", "crisis-probs", "order-range",
               "batch-range", "trials", "seed", "analytic-only",
               "divisors-only", "out")),
    "validate": (_cmd_validate, "rerun the reference validation sweep",
                 ("trials", "seed", "out")),
    "fragments": (_cmd_fragments,
                  "expected-fragmentation curve for one order size",
                  ("order-size", "batch-range", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchfrag",
        description="Batch fragmentation and recall-size model with a "
                    "Monte Carlo validation harness.")
    version = dict(action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--version", **version)
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="command")
    for command, (_, help_line, flags) in _COMMANDS.items():
        sub = commands.add_parser(command, help=help_line)
        for name in flags:
            short, convert, default, metavar, help_text = _FLAGS[name]
            spellings = (short, "--" + name) if short else ("--" + name,)
            kind = (dict(action="store_true") if convert is _boolean
                    else dict(type=convert, metavar=metavar))
            sub.add_argument(*spellings, default=default, help=help_text,
                             **kind)
        sub.add_argument("--config", metavar="PATH",
                         help="key = value file; flags take precedence")
        sub.add_argument("--version", **version)
        # kept so that ``main`` can apply a --config file as defaults
        sub.set_defaults(subparser=sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # File values become the subcommand's defaults, so flags still win.
            args.subparser.set_defaults(
                **_read_config(args.config, args.command))
            args = parser.parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except (UsageError, ValueError) as exc:  # InvalidParamsError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the array it could not make
        print("error: out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
