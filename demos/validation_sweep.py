"""Does the closed form survive contact with the simulator?

Sweeps order and batch sizes, estimating each cell by Monte Carlo and
comparing against the analytic recall size. The headline metric is the
mean absolute cell error as a percent of the total quantity. A reduced
grid runs in seconds; the reference configuration (orders 1..50, batches
1..100, 10,000 trials per cell) is what `batchfrag validate` reruns.
"""

import argparse

import numpy as np

from batchfrag import sweep, write_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="validation_sweep.csv")
    args = parser.parse_args()

    grid = sweep(50, 0.15, range(1, 26), range(1, 51),
                 n_trials=args.trials, base_seed=args.seed)
    print(f"orders 1..25 x batches 1..50, {args.trials} trials per cell")
    print(f"mean absolute error: {grid.mean_abs_error_pct:.3f}% of Q")

    i, j = np.unravel_index(np.argmax(grid.abs_error), grid.abs_error.shape)
    print(f"worst cell O={grid.order_sizes[i]}, B={grid.batch_sizes[j]}: "
          f"analytic {grid.analytic[i, j]:.3f} vs simulated "
          f"{grid.sim_mean[i, j]:.3f} (|err| {grid.abs_error[i, j]:.3f})")

    write_sweep(grid, args.out)
    print(f"wrote {args.out}")
    print("\nreference run: batchfrag validate   (full grid, n=10000)")


if __name__ == "__main__":
    main()
