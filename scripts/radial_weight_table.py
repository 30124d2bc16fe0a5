#!/usr/bin/env python3
"""Build the radial weight y_{q,a} over a parameter grid and tabulate its
certified quantities: total mass against its closed-form cap and the worst
Laplacian slack.

Writes radial_weights.csv plus one profile CSV per (q, a) pair.
"""

import argparse
from pathlib import Path

import numpy as np

from fockdiv.potential import build_radial_weight


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--params", type=str, default="1,2,4,7,10")
    ap.add_argument("--profiles", action="store_true",
                    help="also write one r-profile CSV per pair")
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args()

    vals = [float(x) for x in args.params.split(",")]
    rows = ["q,a,mass,mass_bound,min_laplacian_slack"]
    args.out.mkdir(parents=True, exist_ok=True)
    for q in vals:
        for a in vals:
            w = build_radial_weight(q, a)
            inner = w.grid <= q + a
            slack = float(np.min(w.laplacian_lhs[inner]
                                 - w.laplacian_rhs[inner]))
            rows.append(f"{q:g},{a:g},{w.mass:.6g},{w.mass_bound:.6g},"
                        f"{slack:.6g}")
            print(rows[-1])
            if args.profiles:
                (args.out / f"radial_weight_q{q:g}_a{a:g}.csv").write_text(
                    w.csv(), encoding="utf-8")
    (args.out / "radial_weights.csv").write_text("\n".join(rows) + "\n",
                                                 encoding="utf-8")


if __name__ == "__main__":
    main()
