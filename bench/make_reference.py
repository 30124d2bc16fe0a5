"""Write bench/reference/: the seed-0 outputs that bench/check.py compares
against.  Run it once, from the checkout root, on the commit whose outputs
are the reference (it was run on the commit that added the benchmark):

    python3 bench/make_reference.py

Besides each study's CSVs it stores, for the dichotomy rows, the upper frame
bound B that sets the precision floor of A (not part of dichotomy.csv).
"""

import csv
import math
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

from fockdiv import cli, frame  # noqa: E402
from fockdiv.divisor import Divisor  # noqa: E402


def main() -> int:
    for workload, (study, _) in run.WORKLOADS.items():
        out = run.ROOT / "bench" / "reference" / workload
        out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            config = run.make_config(workload, 0, Path(tmp))
            rc = cli.main([study, "--config", str(config), "--out", str(out)])
        if rc != 0:
            print(f"{workload}: fockdiv exited with {rc}", file=sys.stderr)
            return rc
    ref = run.ROOT / "bench" / "reference" / "dichotomy"
    with open(ref / "dichotomy.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
    lines = ["multiplicity,param,B"]
    for row in rows:
        mult, param = int(row["multiplicity"]), float(row["param"])
        r = math.sqrt(mult)  # the two-node divisor of cli.dichotomy_point
        divisor = Divisor([-param * r + 0j, param * r + 0j], [mult, mult])
        upper = frame.frame_bounds(divisor, 2 * mult).upper
        lines.append(f"{row['multiplicity']},{row['param']},{upper!r}")
    (ref / "upper.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
