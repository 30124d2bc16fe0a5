"""End-to-end CLI runs: exit codes, report formats, determinism."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fockdiv.divisor as dv
import fockdiv.frame as fr
from conftest import report_body
from fockdiv.cli import (EXIT_OK, EXIT_PRECONDITION, EXIT_RESOURCE,
                         dichotomy_sweep, main)
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

RINGS_CFG = """\
[divisor]
source = rings
ring_radii = 1.5,3.0
ring_mults = 2,3
include_center = yes
center_mult = 4
alpha = 2
[frame]
truncations = 12,30,60
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

# dichotomy.csv at multiplicities 1,4,9 and params 0.6,0.8,1.0,1.2, as
# written when the dichotomy split its own SVDs from the frame sweep's:
# (multiplicity, param, N, A, M_X).  These lie within 1.1e-11 of an
# mp.inverse at 60 digits, so rel 1e-9 does not depend on the BLAS build.
PINNED_DICHOTOMY = [
    (1, "0.6", 2, 0.502326954771, 1.16348614201),
    (1, "0.8", 2, 0.674934302775, 1.10224002073),
    (1, "1", 2, 0.735758882343, 1.1658219908),
    (1, "1.2", 2, 0.473855517364, 1.3371363598),
    (4, "0.6", 8, 0.0216748690442, 2.95348849459),
    (4, "0.8", 8, 0.15306108008, 2.11836528097),
    (4, "1", 8, 0.0144462023299, 4.84906806492),
    (4, "1.2", 8, 0.00053792451054, 21.4940424322),
    (9, "0.6", 18, 8.49805323672e-06, 123.740131769),
    (9, "0.8", 18, 0.00088633865466, 18.8197440219),
    (9, "1", 18, 1.75008191944e-06, 342.204004674),
    (9, "1.2", 18, 6.41322870175e-10, 16517.9661932),
]


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

    def test_config_is_a_directory(self, tmp_path, capsys):
        # configparser skips what it cannot open: without the check the
        # study ran its built-in defaults on an empty config
        out = tmp_path / "out"
        code = main(["dichotomy", "--config", str(tmp_path), "--out",
                     str(out)])
        assert code == EXIT_PRECONDITION
        assert capsys.readouterr().err \
            == f"fockdiv: config is not a file: {tmp_path}\n"
        assert not out.exists()

    def test_missing_divisor_file(self, tmp_path):
        code, _ = run(tmp_path, "f", FRAME_CFG.format(path="/nonexistent.csv"),
                      "frame")
        assert code == EXIT_PRECONDITION

    def test_divisor_file_is_a_directory(self, tmp_path, capsys):
        # open() raised IsADirectoryError: exit 1 as an internal error
        code, _ = run(tmp_path, "f", FRAME_CFG.format(path=str(tmp_path)),
                      "frame")
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "is not a file" in err
        assert "internal error" not in err and "Traceback" not in err

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

    @pytest.mark.parametrize("command,cfg", [
        ("geometry", GEOMETRY_CFG), ("uniqueness", UNIQUENESS_CFG)],
        ids=["geometry", "uniqueness"])
    def test_window_step_past_any_float_count(self, tmp_path, capsys,
                                              command, cfg):
        # h = 1e-300 makes a mesh of about 1e602 points; its exact count
        # went through a float format and exited 1 with "int too large to
        # convert to float"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, "h", cfg.replace("h = 0.2", "h = 1e-300")
                          .replace("h = 0.3", "h = 1e-300"), command)
        assert code == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert "scan lattice points of" in err and "internal error" not in err
        # a power of ten, where the count was printed in all its 603 digits
        assert "at least 10^602" in err and len(err) < 200

    @pytest.mark.parametrize("old,new", [
        ("spacing = 1.5", "spacing = nan"), ("extent = 6", "extent = inf"),
        ("extent = 6", "extent = 6\nalpha = nan"),
        ("extent = 6", "extent = 6\nalpha = inf"),
        ("extent = 6", "extent = 6\nhole_radius = nan")])
    def test_non_finite_lattice(self, tmp_path, capsys, old, new):
        # each used to exit 1, or for the hole radius to run without a hole
        cfg = GEOMETRY_CFG.replace(old, new) + "[frame]\ntruncations = 10\n"
        code, _ = run(tmp_path, "f", cfg, "frame")
        assert code == EXIT_PRECONDITION
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [
        ("ring_radii = 1.5,3.0", "ring_radii = 1.5,nan"),
        ("ring_mults = 2,3", "ring_mults = 2"),
        ("alpha = 2", "alpha = nan")])
    def test_bad_rings(self, tmp_path, capsys, old, new):
        code, _ = run(tmp_path, "f", RINGS_CFG.replace(old, new), "frame")
        assert code == EXIT_PRECONDITION
        assert "internal error" not in capsys.readouterr().err

    def test_lattice_over_cap(self, tmp_path, monkeypatch):
        # 81 nodes at a cap of 80; frame scans no window, so only the
        # lattice's own count can stop it
        monkeypatch.setattr(dv, "MAX_GRID_POINTS", 80)
        code, _ = run(tmp_path, "f",
                      GEOMETRY_CFG + "[frame]\ntruncations = 10\n", "frame")
        assert code == EXIT_RESOURCE

    @pytest.mark.parametrize("radii", ["5,7,9,inf", "5,7,9,1e300"])
    def test_radius_with_infinite_square(self, tmp_path, capsys, radii):
        # inf used to exit 1 after LAPACK noise on stderr, and 1e300 to
        # exit 0 with a nan slope
        cfg = UNIQUENESS_CFG.replace("radii = 5,7,9,11", f"radii = {radii}")
        code, _ = run(tmp_path, "u", cfg, "uniqueness")
        assert code == EXIT_PRECONDITION
        assert "R must be positive" in capsys.readouterr().err

    def test_dichotomy_over_entry_cap(self, tmp_path, monkeypatch):
        # m = 6400 at N = 2m: 81,920,000 entries, 2.1 GB at PAIR_BYTES
        # each, past the cap of 1.28 GB; refused before any displacement
        # row or large array is built
        def unreachable(*args):
            raise AssertionError("rows built past the entry cap")
        zeros = np.zeros

        def small_zeros(shape, *args, **kwargs):
            assert np.prod(shape) <= 5e7, "a capped array was allocated"
            return zeros(shape, *args, **kwargs)
        monkeypatch.setattr(fr, "displacement_matrix", unreachable)
        monkeypatch.setattr(np, "zeros", small_zeros)
        code, _ = run(tmp_path, "d", DICHOTOMY_CFG.replace(
            "multiplicities = 1,4", "multiplicities = 6400"), "dichotomy")
        assert code == EXIT_RESOURCE

    def test_window_beyond_the_center_limit(self, tmp_path, capsys):
        # this window sent every point to the margin scan's k-nearest
        # fallback, whose squared distances overflowed: exit 1 with an
        # IndexError
        cfg = GEOMETRY_CFG.replace(
            "kind = disc\nradius = 7\nh = 0.2",
            "kind = rect\nxmin = 1e200\nxmax = 1.00000000001e200\n"
            "ymin = 0\nymax = 1e190\nh = 1e189")
        code, _ = run(tmp_path, "g", cfg, "geometry")
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "internal error" not in err and "Traceback" not in err

    @pytest.mark.parametrize("command,cfg,code", [
        ("dichotomy", "[dichotomy]\nmultiplicities = 2\nparams = 1e154\n",
         EXIT_PRECONDITION),
        ("dichotomy", "[dichotomy]\nmultiplicities = 2\nparams = 1e150\n",
         EXIT_PRECONDITION),
        ("frame", "[divisor]\nspacing = 2\nmultiplicity = 1\nextent = 4\n"
                  "alpha = 1e308\n[frame]\ntruncations = 10\n",
         EXIT_PRECONDITION),
        ("geometry", "[divisor]\nspacing = 1e149\nmultiplicity = 1000000\n"
                     "extent = 1e149\nalpha = 1e-308\n[window]\nradius = 5\n",
         EXIT_PRECONDITION),
        ("frame", "[divisor]\nspacing = 1e-300\nmultiplicity = 1\n"
                  "extent = 2.2\n[frame]\ntruncations = 10\n", EXIT_RESOURCE),
    ], ids=["dichotomy-far-pair", "dichotomy-pair-past-limit",
            "frame-heavy-alpha", "geometry-light-alpha",
            "frame-lattice-count-overflow"])
    def test_overflowing_inputs(self, tmp_path, capsys, command, cfg, code):
        # each exited 1 after RuntimeWarnings (overflow in fock._modulus,
        # Divisor.radii, _near_pairs or the lattice count), or, for the pair
        # at 1e150, exited 0 printing A = 0 and M_X = inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path, "o", cfg, command)[0] == code
        err = capsys.readouterr().err
        assert "internal error" not in err and "Traceback" not in err

    @pytest.mark.parametrize("margins", ["nan", "inf", "0,-inf"])
    def test_non_finite_margin(self, tmp_path, margins):
        cfg = GEOMETRY_CFG.replace("margins = 0.0,0.25",
                                   f"margins = {margins}")
        code, _ = run(tmp_path, "g", cfg, "geometry")
        assert code == EXIT_PRECONDITION

    @pytest.mark.parametrize("margins", ["0,1e308", "-1e308"])
    def test_margin_whose_radius_sums_overflow(self, tmp_path, capsys,
                                               margins):
        # 1e308 used to exit 0 after three RuntimeWarnings, reporting a
        # violation of inf
        cfg = GEOMETRY_CFG.replace("margins = 0.0,0.25",
                                   f"margins = {margins}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, "g", cfg, "geometry")
        assert code == EXIT_PRECONDITION
        assert "max radius + |C|" in capsys.readouterr().err

    @pytest.mark.parametrize("command,cfg,key", [
        ("geometry", GEOMETRY_CFG.replace("spacing = 1.5\n", ""),
         "divisor.spacing"),
        ("geometry", GEOMETRY_CFG.replace("spacing = 1.5", "spacing = abc"),
         "divisor.spacing"),
        ("geometry", GEOMETRY_CFG.replace("radius = 7\n", ""),
         "window.radius"),
        ("geometry", GEOMETRY_CFG.replace(
            "kind = disc\nradius = 7", "kind = rect\nxmin = -7\nxmax = 7"),
         "window.ymin"),
        ("geometry", GEOMETRY_CFG.replace(
            "[window]\nkind = disc\nradius = 7\nh = 0.2\n", ""),
         "window.radius"),
        ("geometry", GEOMETRY_CFG.replace("kind = disc", "kind = disk"),
         "window.kind 'disk'"),
        ("frame", GEOMETRY_CFG + "[frame]\ntruncations = 10,x\n",
         "frame.truncations"),
        ("dichotomy", DICHOTOMY_CFG.replace("multiplicities = 1,4",
                                            "multiplicities = -4"),
         "dichotomy.multiplicities"),
        ("dichotomy", DICHOTOMY_CFG.replace("[dichotomy]\n", ""),
         "no section headers"),
        ("geometry", GEOMETRY_CFG + "[window]\nradius = 8\n",
         "section 'window' already exists"),
        ("geometry", GEOMETRY_CFG.replace("spacing = 1.5",
                                          "spacing = 1.5\nspacing = 2"),
         "option 'spacing' in section 'divisor' already exists"),
        ("dichotomy", DICHOTOMY_CFG.replace("0.6", "0.6\xff"),
         "'utf-8' codec can't decode byte 0xff"),
    ], ids=["no-spacing", "bad-spacing", "no-radius", "rect-no-ymin",
            "no-window", "unknown-window-kind", "bad-truncation",
            "negative-multiplicity", "no-section-header",
            "duplicate-section", "duplicate-option", "not-utf-8"])
    def test_malformed_config(self, tmp_path, capsys, command, cfg, key):
        # inputs from outside the program: exit 2 naming the key, never
        # the internal-error exit 1.  Latin-1 writes each character as one
        # byte, so "\xff" lands in the file as the byte 0xff.
        path = tmp_path / "m.ini"
        path.write_bytes(cfg.encode("latin-1"))
        code = main([command, "--config", str(path), "--out",
                     str(tmp_path / "m")])
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert key in err
        assert "internal error" not in err

    @pytest.mark.parametrize("bom_on", ["config", "divisor"])
    def test_byte_order_mark(self, tmp_path, bom_on):
        # a config with a BOM exited 2 with "File contains no section
        # headers", a divisor CSV with one with "expected header"; the same
        # file, rewritten with the mark, now gives the same reports
        csv = tmp_path / "d.csv"
        csv.write_text(dv.lattice(1.5, 2, 4.0).dumps(), encoding="utf-8")
        cfg = tmp_path / "f.ini"
        cfg.write_text(FRAME_CFG.format(path=csv), encoding="utf-8")
        reports = []
        for mark in (b"", b"\xef\xbb\xbf"):
            target = cfg if bom_on == "config" else csv
            target.write_bytes(mark + target.read_bytes().removeprefix(
                b"\xef\xbb\xbf"))
            out = tmp_path / f"out{len(mark)}"
            assert main(["frame", "--config", str(cfg), "--out", str(out)]) \
                == EXIT_OK
            reports.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
    def test_out_not_a_directory(self, tmp_path, capsys, sub):
        cfg = tmp_path / "d.ini"
        cfg.write_text(DICHOTOMY_CFG, encoding="utf-8")
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        out = str(taken / sub)
        code = main(["dichotomy", "--config", str(cfg), "--out", out])
        assert code == EXIT_PRECONDITION
        assert capsys.readouterr().err \
            == f"fockdiv: --out {out} is not a directory\n"


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

    def test_rings_frame_report(self, tmp_path):
        # source = rings with a centre node and alpha: the rows of
        # frame_sweep on the same radial_rings divisor (38 rows: two tall
        # R and one wide)
        code, out = run(tmp_path, "r", RINGS_CFG, "frame")
        assert code == EXIT_OK
        X = dv.radial_rings([1.5, 3.0], [2, 3], alpha=2.0,
                            include_center=True, center_mult=4)
        assert X.total_multiplicity == 38
        reports = fr.frame_sweep(X, [12, 30, 60])
        assert report_body(out, "frame.csv") == "N,A,B,tail_bound\n" \
            + "".join(r.csv_row() + "\n" for r in reports)
        assert report_body(out, "mx.csv") == "param,MX,N\n" + "".join(
            f"{r.truncation},{r.mx:.12g},{r.truncation}\n" for r in reports)

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

    def test_geometry_reads_the_window_grid_once(self, tmp_path,
                                                 monkeypatch):
        # covering_margin reads the grid; the overlap constant, from the
        # disc arrangement alone, does not
        calls = []
        grid = dv.Region.grid

        def counted(self):
            calls.append(self)
            return grid(self)
        monkeypatch.setattr(dv.Region, "grid", counted)
        assert main(["geometry", "--config",
                     str(ROOT / "configs" / "geometry.ini"),
                     "--out", str(tmp_path / "g")]) == EXIT_OK
        assert len(calls) == 1

    def test_geometry_overlap_constant_at_heavy_alpha(self, tmp_path):
        # GEOMETRY_CFG scaled by 1e-10: discs of radius sqrt(2) 1e-10, far
        # smaller than a crossing nudge of 1e-9, which read 3
        scaled = GEOMETRY_CFG.replace("spacing = 1.5", "spacing = 1.5e-10") \
            .replace("extent = 6", "extent = 6e-10\nalpha = 1e20") \
            .replace("radius = 7", "radius = 7e-10") \
            .replace("h = 0.2", "h = 2e-11")
        rows = []
        for name, cfg in (("g", GEOMETRY_CFG), ("s", scaled)):
            code, out = run(tmp_path, name, cfg, "geometry")
            assert code == EXIT_OK
            rows += [ln for ln in report_body(out, "geometry.csv")
                     .splitlines() if ln.startswith("overlap_constant,")]
        assert rows == ["overlap_constant,,,4,,"] * 2

    def test_geometry_searches_node_pairs_twice(self, tmp_path,
                                                monkeypatch):
        # one search for the overlap constant's crossings, at 2 r for every
        # node, and one for the disjointness of all three margins, at the
        # largest 2 (r + C) for every node; one search per margin made four
        reaches = []
        search = dv._node_pairs

        def counted(centers, reach):
            reaches.append(reach.tolist())
            return search(centers, reach)
        monkeypatch.setattr(dv, "_node_pairs", counted)
        assert main(["geometry", "--config",
                     str(ROOT / "configs" / "geometry.ini"),
                     "--out", str(tmp_path / "g")]) == EXIT_OK
        r, n = math.sqrt(2), len(reaches[0])
        assert n > 1 and reaches == [[2 * r] * n, [2 * (r + 0.5)] * n]

    def test_frame_builds_r_once(self, tmp_path, monkeypatch):
        # three truncations share one pass over R's rows, built from one
        # displacement_matrix call per distinct multiplicity (each block
        # holds up to ROW_BLOCK rows; these divisors fill one block per
        # multiplicity); the sweep streams the blocks and never assembles
        # R through restriction_matrix
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
        assert calls == {"restriction_matrix": 0, "displacement_matrix": 1}
        X = Divisor(np.array([0j, 1.5 + 0j, 3j]), np.array([2, 1, 3]))
        p = tmp_path / "d.csv"
        X.to_csv(p)
        code, _ = run(tmp_path, "mixed", FRAME_CFG.format(path=str(p)),
                      "frame")
        assert code == EXIT_OK
        assert calls == {"restriction_matrix": 0, "displacement_matrix": 4}

    def test_dichotomy_report(self, tmp_path):
        code, out = run(tmp_path, "d", DICHOTOMY_CFG, "dichotomy")
        assert code == EXIT_OK
        text = (out / "dichotomy.csv").read_text(encoding="utf-8")
        data = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert data[0] == "multiplicity,param,N,A,MX,inv_A,max_metric"
        assert len(data) == 5

    def test_dichotomy_values_pinned(self, tmp_path):
        cfg = ("[dichotomy]\nmultiplicities = 1,4,9\n"
               "params = 0.6,0.8,1.0,1.2\n")
        code, out = run(tmp_path, "d", cfg, "dichotomy")
        assert code == EXIT_OK
        data = report_body(out, "dichotomy.csv").splitlines()[1:]
        assert len(data) == len(PINNED_DICHOTOMY)
        for line, (mult, param, n, lower, mx) in zip(data,
                                                      PINNED_DICHOTOMY):
            row = line.split(",")
            assert row[:3] == [str(mult), param, str(n)]
            assert float(row[3]) == pytest.approx(lower, rel=1e-9, abs=0.0)
            assert float(row[4]) == pytest.approx(mx, rel=1e-9, abs=0.0)

    def test_determinism_byte_identical(self, tmp_path):
        _, out1 = run(tmp_path, "run1", GEOMETRY_CFG, "geometry")
        _, out2 = run(tmp_path, "run2", GEOMETRY_CFG, "geometry")
        a = (out1 / "geometry.csv").read_bytes()
        b = (out2 / "geometry.csv").read_bytes()
        # provenance echoes the command invocation identically here
        assert a == b


class TestDichotomyFamily:
    def test_point_shapes(self):
        [row] = dichotomy_sweep([4], [1.0])
        assert row["N"] == 8
        assert row["A"] >= 0.0
        assert row["MX"] >= 1.0 or math.isinf(row["MX"])

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
        dichotomy_sweep([16], [0.8])
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


class TestImportGraph:
    @pytest.mark.parametrize("config",
                             sorted((ROOT / "configs").glob("*.ini")),
                             ids=lambda path: path.stem)
    def test_studies_never_load_integrate(self, tmp_path, config):
        # potential.integrate is there for the bench tracer only: neither
        # importing the CLI nor running a shipped study may load
        # scipy.integrate, or the scipy.optimize it imports
        code = ("import sys; from fockdiv.cli import main;"
                " names = ('scipy.integrate', 'scipy.optimize');"
                " print([m for m in names if m in sys.modules]);"
                f" rc = main(['{config.stem}', '--config', sys.argv[1],"
                " '--out', sys.argv[2]]);"
                " print([m for m in names if m in sys.modules]); sys.exit(rc)")
        proc = run_subprocess(tmp_path, config.read_text(encoding="utf-8"),
                              code)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.split() == ["[]", "[]"]

    def test_closed_forms_never_load_optimize(self, tmp_path):
        # the triple-disc test and the tail-ratio shift are closed forms:
        # neither searches with scipy.optimize
        code = ("import sys; import numpy as np;"
                " from fockdiv.divisor import triple_disc_witness;"
                " from fockdiv.fock import CoefVec, local_concentration_check;"
                " triple_disc_witness((0j, 1.0), (1 + 0j, 1.0), (0.5j, 1.0));"
                " local_concentration_check(CoefVec(np.eye(32)[8]), 4, 0.5);"
                " print('scipy.optimize' in sys.modules)")
        proc = run_subprocess(tmp_path, "", code)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip() == "False"
