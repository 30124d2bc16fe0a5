#!/usr/bin/env python3
"""Frame lower bound of a unit lattice as a central hole grows.

Removing the nodes inside |z| < rho starves the low-degree coefficient
directions: A(N) collapses roughly like the Gaussian mass the hole hides.
Writes hole_collapse.csv with columns rho,A,B,ratio_to_baseline.
"""

import argparse
import math
from pathlib import Path

from fockdiv.divisor import lattice
from fockdiv.frame import frame_bounds


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spacing", type=float, default=1.0)
    ap.add_argument("--truncation", type=int, default=300)
    ap.add_argument("--holes", type=str, default="0,2,3,4,5")
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args()

    extent = math.sqrt(args.truncation) + 2
    rows = ["rho,A,B,ratio_to_baseline"]
    baseline = None
    for rho in (float(x) for x in args.holes.split(",")):
        X = lattice(args.spacing, 1, extent, hole_radius=rho)
        rep = frame_bounds(X, args.truncation)
        if baseline is None:
            baseline = rep.lower
        ratio = rep.lower / baseline if baseline else float("nan")
        rows.append(f"{rho:g},{rep.lower:.6g},{rep.upper:.6g},{ratio:.6g}")
        print(rows[-1])
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "hole_collapse.csv").write_text("\n".join(rows) + "\n",
                                                encoding="utf-8")


if __name__ == "__main__":
    main()
