#!/usr/bin/env python3
"""Sweep the profit/inventory trade-off parameter V on the two-price
benchmark market and compare the measured time-average profit against the
theoretical floor phi_opt - B/V - L(Q(0))/(V t).

Writes a tidy CSV (one row per V) for external plotting.
"""

import argparse
import csv
import sys
from fractions import Fraction

from lyaptrade import (BudgetMode, CostFunction, MarketSpec,
                       PriceDistribution, StockSpec, TraderParams,
                       run_profit, solve_phi_opt)
from lyaptrade.analysis import verify_thm1_profit


def benchmark_market(p_lo, p_hi):
    spec = MarketSpec((StockSpec(0, 1, p_hi, CostFunction(), CostFunction()),),
                      BudgetMode())
    dist = PriceDistribution(((p_lo,), (p_hi,)),
                             (Fraction(1, 2), Fraction(1, 2)))
    return spec, dist


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--v-values", type=int, nargs="+",
                    default=[2, 5, 10, 20, 50, 100, 200])
    ap.add_argument("--horizon", type=int, default=10 ** 5)
    ap.add_argument("--replications", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="-", help="CSV path ('-' for stdout)")
    args = ap.parse_args(argv)

    spec, dist = benchmark_market(100, 200)
    phi = solve_phi_opt(spec, dist).phi_opt

    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    w = csv.writer(out)
    w.writerow(["V", "mean_profit_per_slot", "ci95", "floor", "slack"])
    for V in args.v_values:
        params = TraderParams(V=V)
        totals = [run_profit(spec, params, dist, args.horizon,
                             seed=args.seed, stream=r)[0]
                  for r in range(args.replications)]
        report = verify_thm1_profit(totals, args.horizon, spec, params, phi,
                                    min_runs=1)
        mean, sigma, floor = (report.detail[k]
                              for k in ("mean", "sigma", "bound"))
        w.writerow([V, f"{mean:.6f}", f"{1.96 * sigma:.6f}", f"{floor:.6f}",
                    f"{mean - floor:.6f}"])
    if out is not sys.stdout:
        out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
