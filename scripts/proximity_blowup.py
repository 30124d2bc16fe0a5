#!/usr/bin/env python3
"""Interpolation constant of two heavy nodes as their discs start to overlap.

Two nodes of multiplicity m sit at -d/2 and d/2; their jet discs have
radius sqrt(m) and touch at d = 2 sqrt(m).  As d shrinks past tangency the
minimal-norm interpolants must separate increasingly entangled jets and
M_X(N) blows up.  The truncation must be at least 2 m; R is split by
parity (fockdiv.frame.symmetric_pair_report).  Writes proximity.csv with
columns d,MX,N.
"""

import argparse
from pathlib import Path

from fockdiv.frame import symmetric_pair_report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mult", type=int, default=25)
    ap.add_argument("--truncation", type=int, default=120)
    ap.add_argument("--distances", type=str,
                    default="12,10.5,10,9.5,9,8.5,8,7.5,7")
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args()

    rows = ["d,MX,N"]
    for d in (float(x) for x in args.distances.split(",")):
        mx = symmetric_pair_report(d / 2, args.mult, args.truncation).mx
        rows.append(f"{d:g},{mx:.6g},{args.truncation}")
        print(rows[-1])
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "proximity.csv").write_text("\n".join(rows) + "\n",
                                            encoding="utf-8")


if __name__ == "__main__":
    main()
