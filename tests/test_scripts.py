"""Smoke runs of the example scripts: exit status and report header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import report_body

ROOT = Path(__file__).resolve().parents[1]

# script, small arguments, report written to --out, its header line
CASES = [
    ("hole_collapse.py", ["--truncation", "60", "--holes", "0,2"],
     "hole_collapse.csv", "rho,A,B,ratio_to_baseline"),
    ("proximity_blowup.py",
     ["--mult", "4", "--truncation", "20", "--distances", "5,3"],
     "proximity.csv", "d,MX,N"),
    ("radial_weight_table.py", ["--params", "1,2"], "radial_weights.csv",
     "q,a,mass,mass_bound,min_laplacian_slack"),
    ("thinning_demo.py", [], "thinning_margins.csv", "C,worst_margin"),
]


# radial_weights.csv of a default radial_weight_table.py run, as written
# when g was a cumulative Simpson integral of g' on the grid
RADIAL_WEIGHTS = """\
q,a,mass,mass_bound,min_laplacian_slack
1,1,5.66359,8.37758,1.19722
1,2,7.33511,11.3097,2.51785
1,4,11.035,17.4533,3.27799
1,7,16.7448,26.8083,3.60437
1,10,22.4977,36.2031,3.73021
2,1,10.1392,14.1372,0.787817
2,2,11.3272,16.7552,2.09861
2,4,14.6702,22.6195,3.0367
2,7,20.1894,31.8086,3.48511
2,10,25.858,41.1263,3.66025
4,1,20.158,26.1799,0.413363
4,2,20.2784,28.2743,1.50502
4,4,22.6543,33.5103,2.54931
4,7,27.5754,42.237,3.18091
4,10,32.9573,51.3127,3.45937
7,1,36.4599,44.6804,0.212153
7,2,35.1262,46.2671,1.0281
7,4,35.8957,50.6844,2.00245
7,7,39.6451,58.6431,2.74246
7,10,44.4063,67.2534,3.12616
10,1,53.5019,63.3555,0.131233
10,2,50.9452,64.627,0.771768
10,4,50.163,68.4169,1.63332
10,7,52.6216,75.66,2.38408
10,10,56.6359,83.7758,2.81972
"""

# thinning_demo.py's report and the head of its output: the three planted
# nodes of multiplicity 1 go, the 220 heavy nodes stay
THINNING_MARGINS = """\
C,worst_margin
1,-2.22912
2,-1.22912
3,-0.229124
"""
THINNING_OUT = """\
nodes: 223 -> 220
removed 10.94+9.212j
removed -4.794-14.84j
removed -8.633+14.76j
"""


def run_script(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args,
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script,args,report,header", CASES,
                         ids=[case[0] for case in CASES])
def test_script_runs(tmp_path, script, args, report, header):
    run_script(tmp_path, script, args)
    lines = (tmp_path / report).read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    assert len(lines) > 1


def test_radial_weight_table_pinned(tmp_path):
    run_script(tmp_path, "radial_weight_table.py", [])
    assert report_body(tmp_path, "radial_weights.csv") == RADIAL_WEIGHTS


def test_thinning_demo_pinned(tmp_path):
    out = run_script(tmp_path, "thinning_demo.py", [])
    assert out.startswith(THINNING_OUT)
    assert report_body(tmp_path, "thinning_margins.csv") == THINNING_MARGINS
