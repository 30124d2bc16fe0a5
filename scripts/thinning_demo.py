#!/usr/bin/env python3
"""Thinning a redundant radial divisor down to a covering skeleton.

Builds concentric rings of heavy nodes, plants a few far nodes of
multiplicity 1, thins, and reports which nodes were removed together with
the covering margins of the shrunk discs on an inner window.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from fockdiv.divisor import (Divisor, Region, covering_margin, radial_rings,
                             thin_subdivisor)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args()

    ring_radii = [4.0, 7.0, 10.0, 13.0, 16.0, 19.0]
    base = radial_rings(
        ring_radii, [25] * 6,
        counts=[max(1, int(math.ceil(2 * math.pi * r / 2.0)))
                for r in ring_radii],
        include_center=True, center_mult=36)
    planted = np.array([14.3 * np.exp(0.7j), 17.1 * np.exp(2.1j),
                        15.6 * np.exp(4.4j)])
    X = Divisor(np.concatenate([base.centers, planted]),
                np.concatenate([base.mults, [1, 1, 1]]))
    W = Region.disc(23.0, 0.1)
    thin = thin_subdivisor(X, W, [1.0, 2.0, 3.0])
    removed = sorted(set(map(complex, X.centers))
                     - set(map(complex, thin.centers)),
                     key=lambda z: (abs(z), z.real))
    print(f"nodes: {len(X)} -> {len(thin)}")
    for z in removed:
        print(f"removed {z:.4g}")
    inner = Region.disc(17.0, 0.1)
    rows = ["C,worst_margin"]
    c_list = [1.0, 2.0, 3.0]
    shrunk = [shrink for _, shrink in covering_margin(thin, c_list, inner)]
    for C, (_, margin) in zip(c_list, shrunk):
        rows.append(f"{C:g},{margin:.6g}")
        print(rows[-1])
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "thinning_margins.csv").write_text("\n".join(rows) + "\n",
                                                   encoding="utf-8")
    thin.to_csv(args.out / "thinned_divisor.csv")


if __name__ == "__main__":
    main()
