"""How many batch fragments does one customer order contain?

An order filled under FIFO is cut wherever a batch boundary falls inside
it. For a 10-unit order out of 4-unit batches the count is 3 or 4,
depending on how much of the first batch earlier orders already used,
and the expectation has the closed form (O + B - 1) / B.

This script prints the distribution for the 10/4 case, then writes the
expected-count curve across batch sizes 1..20 as CSV.
"""

import argparse

from batchfrag import ModelParams, fragment_stats
from batchfrag.report import write_fragments_curve


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order-size", type=int, default=10)
    parser.add_argument("--out", default="fragments_curve.csv")
    args = parser.parse_args()

    o = args.order_size
    print(f"fragment-count distribution of one {o}-unit order")
    print(f"{'batch':>5} {'fr_min':>6} {'fr_max':>6} {'P(fr_max)':>10} "
          f"{'expected':>9}")
    for b in (1, 2, 3, 4, 5, 8, 10, 20):
        st = fragment_stats(ModelParams(o, b, max(o, 50), 0.15))
        print(f"{b:>5} {st.fr_min:>6} {st.fr_max:>6} "
              f"{str(st.p_fr_max):>10} {float(st.expected_fragments):>9.4f}")

    print()
    print("the 4-unit column is the worked case: 3 with prob 3/4, 4 with")
    print("prob 1/4, mean 3.25; large batches converge to a single fragment")

    write_fragments_curve(o, range(1, 21), args.out)
    print(f"\nwrote {args.out} (batch_size,expected_fragments for B=1..20)")


if __name__ == "__main__":
    main()
