#!/usr/bin/env python3
"""Time candidate generation plus composing across table sizes.

Example:
    python scripts/scaling_bench.py --sizes 1000 2000 4000 8000
"""

import argparse
import statistics
import time

from tsalign import (
    ConstraintConfig,
    WeightParams,
    composers,
    generate_candidates,
    generate_synthetic,
    inject_mcar,
)


def timed_run(n, m, jitter, rate, theta, beta, strategy, seed):
    table, _ = generate_synthetic(n, m, jitter, seed=seed)
    masked = inject_mcar(table, rate, seed=seed + 1)
    cfg = ConstraintConfig(theta=theta, beta=beta)
    params = WeightParams(3, 2, 1, 1)
    start = time.perf_counter()
    rc = generate_candidates(masked, cfg)
    alignment = composers.compose(strategy, rc, cfg, masked, params, seed=seed)
    return time.perf_counter() - start, len(rc), len(alignment)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1000, 2000, 4000, 8000])
    parser.add_argument("--m", type=int, default=4)
    parser.add_argument("--jitter", type=float, default=4.0)
    parser.add_argument("--rate", type=float, default=0.2)
    parser.add_argument("--theta", type=float, default=7.0)
    parser.add_argument("--beta", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    for strategy in ("greedy", "expect"):
        print(f"-- {strategy}")
        previous = None
        for n in args.sizes:
            times = []
            for rep in range(args.repeats):
                elapsed, cand, aligned = timed_run(
                    n, args.m, args.jitter, args.rate, args.theta, args.beta,
                    strategy, seed=rep)
                times.append(elapsed)
            median = statistics.median(times)
            factor = "" if previous is None else f"  x{median / previous:.2f}"
            print(f"n={n:6d}  {median * 1000:8.1f} ms  candidates={cand:7d} "
                  f"aligned={aligned:7d}{factor}")
            previous = median


if __name__ == "__main__":
    main()
