"""End-to-end CLI runs: exit codes, report formats, determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fockdiv.divisor as dv
import fockdiv.frame as fr
from fockdiv.cli import (EXIT_OK, EXIT_PRECONDITION, EXIT_RESOURCE,
                         dichotomy_point, dichotomy_sweep, main)
from fockdiv.divisor import Divisor

GEOMETRY_CFG = """\
[divisor]
source = lattice
spacing = 1.5
multiplicity = 2
extent = 6
[window]
kind = disc
radius = 7
h = 0.2
[geometry]
margins = 0.0,0.25
"""

FRAME_CFG = """\
[divisor]
source = file
file = {path}
[frame]
truncations = 20,40
"""

GEOMETRY_FILE_CFG = """\
[divisor]
source = file
file = {path}
[window]
kind = disc
radius = 4
h = 0.2
"""

UNIQUENESS_CFG = """\
[divisor]
source = lattice
spacing = 1.2
multiplicity = 2
extent = 14
[window]
kind = disc
radius = 14
h = 0.3
[uniqueness]
radii = 5,7,9,11
"""

DICHOTOMY_CFG = """\
[dichotomy]
multiplicities = 1,4
params = 0.6,1.0
"""


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# configs/uniqueness.ini as computed by adaptive quadrature before the fixed
# polar rule: the summary body byte for byte, and (R, I(R))
SHIPPED_UNIQUENESS_SUMMARY = """\
key,value
verdict,not a zero divisor (certificate grows)
area_K,8.37
area_error,3.07673
R0,3.35410196625
slope,3134.54550844
slope_benchmark,9.37
"""
SHIPPED_REDISTRIBUTION = [
    (10, 245.494381225), (14, 527.386994517), (18, 909.472403394),
    (22, 1390.56139527), (26, 1970.11975323), (30, 2647.94571719),
    (34, 3423.87814949), (40, 4771.29457938)]

# configs/frame.ini: tall, square and wide R from one R built at N = 40
SHIPPED_FRAME = """\
N,A,B,tail_bound
16,0.00043421773766,1.1873573867,0.999988
25,1.74941122022e-06,1.20565274125,0.992311
40,0,1.21823870409,0.439709
"""
SHIPPED_MX = """\
param,MX,N
16,inf,16
25,393.410371068,25
40,1.37752602298,40
"""

# configs/geometry.ini as computed by one covering scan per (C, mode)
SHIPPED_GEOMETRY = """\
record,C,mode,value,aux1,aux2
overlap_constant,,,4,,
covering,0,expand,1.53621013601,-0.05,-0.05
covering,0,shrink,1.53621013601,-0.05,-0.05
disjoint,0,expand,0,0,1.32842712475
covering,0.25,expand,1.28621013601,-0.05,-0.05
covering,0.25,shrink,1.78621013601,-0.05,-0.05
disjoint,0.25,expand,0,0,1.82842712475
covering,0.5,expand,1.03621013601,-0.05,-0.05
covering,0.5,shrink,2.03621013601,-0.05,-0.05
disjoint,0.5,expand,0,0,2.32842712475
"""


def report_body(out, name):
    """A report's lines below its '#' provenance header, joined."""
    text = (out / name).read_text(encoding="utf-8")
    return "".join(ln for ln in text.splitlines(keepends=True)
                   if not ln.startswith("#"))


def run_subprocess(tmp_path, cfg_text, code, **env):
    """Run python -c code in a fresh interpreter with the package on the
    path; the code sees the config path as sys.argv[1] and an output
    directory as sys.argv[2]."""
    cfg = tmp_path / "sub.ini"
    cfg.write_text(cfg_text, encoding="utf-8")
    full_env = dict(os.environ, **env)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, str(cfg), str(tmp_path / "out")],
        env=full_env, capture_output=True, text=True, timeout=300)


def run(tmp_path, name, cfg_text, command):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(cfg_text, encoding="utf-8")
    out = tmp_path / name
    code = main([command, "--config", str(cfg), "--out", str(out)])
    return code, out


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        assert main(["frame", "--config", str(tmp_path / "nope.ini")]) \
            == EXIT_PRECONDITION

    def test_missing_divisor_file(self, tmp_path):
        code, _ = run(tmp_path, "f", FRAME_CFG.format(path="/nonexistent.csv"),
                      "frame")
        assert code == EXIT_PRECONDITION

    def test_malformed_divisor_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("re,im,multiplicity\n1,oops,3\n", encoding="utf-8")
        code, _ = run(tmp_path, "f", FRAME_CFG.format(path=str(bad)), "frame")
        assert code == EXIT_PRECONDITION

    @pytest.mark.parametrize("re", ["nan", "1e233"])
    def test_unusable_divisor_center(self, tmp_path, re):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"re,im,multiplicity\n0,0,2\n{re},0,2\n",
                       encoding="utf-8")
        code, _ = run(tmp_path, "g", GEOMETRY_FILE_CFG.format(path=str(bad)),
                      "geometry")
        assert code == EXIT_PRECONDITION

    def test_success(self, tmp_path):
        code, out = run(tmp_path, "g", GEOMETRY_CFG, "geometry")
        assert code == EXIT_OK
        assert (out / "geometry.csv").exists()

    @pytest.mark.parametrize("old,new", [
        ("radius = 7", "radius = inf"), ("radius = 7", "radius = nan"),
        ("h = 0.2", "h = nan"), ("h = 0.2", "h = inf")])
    def test_non_finite_window(self, tmp_path, old, new):
        code, _ = run(tmp_path, "g", GEOMETRY_CFG.replace(old, new),
                      "geometry")
        assert code == EXIT_PRECONDITION

    def test_scan_lattice_over_cap(self, tmp_path):
        # 2e8 points a side; refused before any allocation
        cfg = GEOMETRY_CFG.replace("radius = 7", "radius = 10") \
            .replace("h = 0.2", "h = 1e-7")
        code, _ = run(tmp_path, "g", cfg, "geometry")
        assert code == EXIT_RESOURCE

    @pytest.mark.parametrize("margins", ["nan", "inf", "0,-inf"])
    def test_non_finite_margin(self, tmp_path, margins):
        cfg = GEOMETRY_CFG.replace("margins = 0.0,0.25",
                                   f"margins = {margins}")
        code, _ = run(tmp_path, "g", cfg, "geometry")
        assert code == EXIT_PRECONDITION


class TestReports:
    def test_provenance_header(self, tmp_path):
        _, out = run(tmp_path, "g", GEOMETRY_CFG, "geometry")
        text = (out / "geometry.csv").read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0].startswith("# fockdiv geometry")
        assert any(line.startswith("# divisor.spacing=") for line in lines)
        assert not any(line.startswith("# workers=") for line in lines)

    def test_frame_csv_headers(self, tmp_path):
        X = Divisor(np.array([0j, 1.5 + 0j]), np.array([2, 2]))
        p = tmp_path / "d.csv"
        X.to_csv(p)
        code, out = run(tmp_path, "f", FRAME_CFG.format(path=str(p)), "frame")
        assert code == EXIT_OK
        frame = (out / "frame.csv").read_text(encoding="utf-8").splitlines()
        data = [ln for ln in frame if not ln.startswith("#")]
        assert data[0] == "N,A,B,tail_bound"
        assert len(data) == 3
        mx = (out / "mx.csv").read_text(encoding="utf-8").splitlines()
        data = [ln for ln in mx if not ln.startswith("#")]
        assert data[0] == "param,MX,N"

    def test_uniqueness_reports(self, tmp_path):
        code, out = run(tmp_path, "u", UNIQUENESS_CFG, "uniqueness")
        assert code == EXIT_OK
        red = (out / "redistribution.csv").read_text(encoding="utf-8")
        data = [ln for ln in red.splitlines() if not ln.startswith("#")]
        assert data[0] == "R,I,piR2_half,excess"
        summary = (out / "uniqueness_summary.csv").read_text(encoding="utf-8")
        assert "verdict,not a zero divisor (certificate grows)" in summary

    def test_shipped_uniqueness_config(self, tmp_path):
        out = tmp_path / "u"
        assert main(["uniqueness", "--config",
                     str(ROOT / "configs" / "uniqueness.ini"),
                     "--out", str(out)]) == EXIT_OK

        assert report_body(out, "uniqueness_summary.csv") \
            == SHIPPED_UNIQUENESS_SUMMARY
        body = report_body(out, "redistribution.csv").splitlines()
        rows = [ln.split(",") for ln in body[1:]]
        assert [float(row[0]) for row in rows] \
            == [R for R, _ in SHIPPED_REDISTRIBUTION]
        for row, (_, value) in zip(rows, SHIPPED_REDISTRIBUTION):
            assert float(row[1]) == pytest.approx(value, rel=1e-9)

    def test_shipped_frame_config(self, tmp_path):
        out = tmp_path / "f"
        assert main(["frame", "--config", str(ROOT / "configs" / "frame.ini"),
                     "--out", str(out)]) == EXIT_OK
        assert report_body(out, "frame.csv") == SHIPPED_FRAME
        assert report_body(out, "mx.csv") == SHIPPED_MX

    def test_shipped_geometry_config(self, tmp_path):
        out = tmp_path / "g"
        assert main(["geometry", "--config",
                     str(ROOT / "configs" / "geometry.ini"),
                     "--out", str(out)]) == EXIT_OK
        assert report_body(out, "geometry.csv") == SHIPPED_GEOMETRY

    def test_geometry_scans_once_per_node_set(self, tmp_path, monkeypatch):
        # the shipped margins stay below every radius: one node set, so one
        # margin scan serves all six covering rows, and one count scan the
        # overlap constant
        calls = {"_margin_scan": 0, "_count_scan": 0}

        def count(name):
            fn = getattr(dv, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(dv, name, counted)

        count("_margin_scan")
        count("_count_scan")
        assert main(["geometry", "--config",
                     str(ROOT / "configs" / "geometry.ini"),
                     "--out", str(tmp_path / "shipped")]) == EXIT_OK
        assert calls == {"_margin_scan": 1, "_count_scan": 1}
        # radii 1, 2, 3: the node sets are all three (every expand, and a
        # shrink by C < 1), {2, 3} (1 <= C < 2), {3} (2 <= C < 3) and none
        # (C >= 3): three margin scans
        X = Divisor(np.array([0j, 2 + 0j, 5j]), np.array([1, 4, 9]))
        p = tmp_path / "d.csv"
        X.to_csv(p)
        cfg = GEOMETRY_FILE_CFG.format(path=str(p)) \
            + "[geometry]\nmargins = 0,-1,0.5,1,1.5,2.5,3,3.5\n"
        code, out = run(tmp_path, "mixed", cfg, "geometry")
        assert code == EXIT_OK
        assert calls == {"_margin_scan": 4, "_count_scan": 2}
        empty = [ln.split(",")[1] for ln
                 in report_body(out, "geometry.csv").splitlines()
                 if ln.endswith("empty-system,,")]
        assert empty == ["3", "3.5"]

    def test_frame_builds_r_once(self, tmp_path, monkeypatch):
        # three truncations share one R, built from one displacement_matrix
        # call per distinct multiplicity (each block holds up to ROW_BLOCK
        # rows; these divisors fill one block per multiplicity)
        calls = {"restriction_matrix": 0, "displacement_matrix": 0}

        def count(name):
            fn = getattr(fr, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(fr, name, counted)

        count("restriction_matrix")
        count("displacement_matrix")
        assert main(["frame", "--config", str(ROOT / "configs" / "frame.ini"),
                     "--out", str(tmp_path / "unit")]) == EXIT_OK
        assert calls == {"restriction_matrix": 1, "displacement_matrix": 1}
        X = Divisor(np.array([0j, 1.5 + 0j, 3j]), np.array([2, 1, 3]))
        p = tmp_path / "d.csv"
        X.to_csv(p)
        code, _ = run(tmp_path, "mixed", FRAME_CFG.format(path=str(p)),
                      "frame")
        assert code == EXIT_OK
        assert calls == {"restriction_matrix": 2, "displacement_matrix": 4}

    def test_dichotomy_report(self, tmp_path):
        code, out = run(tmp_path, "d", DICHOTOMY_CFG, "dichotomy")
        assert code == EXIT_OK
        text = (out / "dichotomy.csv").read_text(encoding="utf-8")
        data = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert data[0] == "multiplicity,param,N,A,MX,inv_A,max_metric"
        assert len(data) == 5

    def test_determinism_byte_identical(self, tmp_path):
        _, out1 = run(tmp_path, "run1", GEOMETRY_CFG, "geometry")
        _, out2 = run(tmp_path, "run2", GEOMETRY_CFG, "geometry")
        a = (out1 / "geometry.csv").read_bytes()
        b = (out2 / "geometry.csv").read_bytes()
        # provenance echoes the command invocation identically here
        assert a == b


class TestDichotomyFamily:
    def test_point_shapes(self):
        n, lower, mx = dichotomy_point(4, 1.0)
        assert n == 8
        assert lower >= 0.0
        assert mx >= 1.0 or math.isinf(mx)

    def test_metric_grows_with_multiplicity(self):
        params = [0.6, 0.8, 1.0, 1.2]
        best = []
        for mult in [1, 4, 16]:
            rows = dichotomy_sweep([mult], params)
            best.append(min(r["max_metric"] for r in rows))
        assert best[0] < best[1] < best[2]

    def test_rank_rule_flags_a_and_mx_together(self):
        # a row is either measured on both A and M_X or flagged on both
        params = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3]
        for row in dichotomy_sweep([4, 16, 36], params):
            assert (row["A"] > 0) == math.isfinite(row["MX"]), row

    def test_point_builds_r_once(self, monkeypatch):
        # only the +a node's rows are built, from one kernel call at a real
        # centre; no restriction matrix is assembled
        calls = {"restriction_matrix": [], "displacement_matrix": []}

        def count(name):
            fn = getattr(fr, name)

            def counted(*args):
                out = fn(*args)
                calls[name].append((args, getattr(out, "shape", None)))
                return out
            monkeypatch.setattr(fr, name, counted)

        count("restriction_matrix")
        count("displacement_matrix")
        dichotomy_point(16, 0.8)
        assert calls["restriction_matrix"] == []
        [(args, shape)] = calls["displacement_matrix"]
        assert isinstance(args[0], float) and args[0] > 0
        assert shape == (32, 16)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_svd_converges_at_m64(self, tmp_path, threads):
        # near-singular points of the family, on which LAPACK's
        # divide-and-conquer SVD fails to converge depending on the BLAS
        # thread count; the SVDs run here are of R's real 64 x 64 parity
        # blocks E and O
        cfg = ("[dichotomy]\nmultiplicities = 64\n"
               "params = 0.882,0.884,0.886,1.099\n")
        code = ("import sys; from fockdiv.cli import main; sys.exit(main("
                "['dichotomy', '--config', sys.argv[1], '--out', sys.argv[2]]))")
        proc = run_subprocess(tmp_path, cfg, code,
                              OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == EXIT_OK, proc.stderr

    def test_nonpositive_param_exits_2(self, tmp_path):
        # the family's nodes sit at +/- param sqrt(m), param > 0
        cfg = "[dichotomy]\nmultiplicities = 4\nparams = 0.8,0\n"
        code, _ = run(tmp_path, "zero", cfg, "dichotomy")
        assert code == EXIT_PRECONDITION

    def test_runs_without_mpmath(self, tmp_path):
        # heavy nodes, |z|^2 up to 36, still build R in double precision
        cfg = "[dichotomy]\nmultiplicities = 4,36\nparams = 0.8,1.0\n"
        code = ("import sys; from fockdiv.cli import main; rc = main("
                "['dichotomy', '--config', sys.argv[1], '--out', sys.argv[2]]);"
                " print('mpmath' in sys.modules); sys.exit(rc)")
        proc = run_subprocess(tmp_path, cfg, code)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip() == "False"
