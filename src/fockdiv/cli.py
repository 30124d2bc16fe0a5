"""Experiment runner: reproducible desk-scale studies over a config file.

Usage:
    fockdiv <geometry|frame|uniqueness|dichotomy> --config cfg.ini
            [--out DIR]

Config is an INI file; every report starts with '#'-prefixed provenance
lines echoing the effective configuration.  Exit codes: 0 success,
1 internal error, 2 precondition/hypothesis failure, 3 resource cap.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from pathlib import Path

from . import divisor as dv
from . import frame as fr
from . import potential as pt
from .errors import (DomainError, ParameterError, PreconditionError,
                     ResourceError)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PRECONDITION = 2
EXIT_RESOURCE = 3


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.replace(";", ",").split(",") if x.strip()]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.replace(";", ",").split(",") if x.strip()]


def load_divisor(cfg: configparser.ConfigParser) -> dv.Divisor:
    sec = cfg["divisor"]
    alpha = sec.getfloat("alpha", 1.0)
    source = sec.get("source", "lattice")
    if source == "file":
        path = sec.get("file")
        if not path or not Path(path).exists():
            raise ParameterError(f"divisor file not found: {path!r}")
        return dv.Divisor.from_csv(path, alpha=alpha)
    if source == "lattice":
        return dv.lattice(spacing=sec.getfloat("spacing"),
                          mult=sec.getint("multiplicity"),
                          extent=sec.getfloat("extent"),
                          alpha=alpha,
                          hole_radius=sec.getfloat("hole_radius", 0.0))
    if source == "rings":
        return dv.radial_rings(_floats(sec.get("ring_radii")),
                               _ints(sec.get("ring_mults")),
                               alpha=alpha,
                               include_center=sec.getboolean(
                                   "include_center", False),
                               center_mult=sec.getint("center_mult", 1))
    raise ParameterError(f"unknown divisor source {source!r}")


def load_window(cfg: configparser.ConfigParser) -> dv.Region:
    sec = cfg["window"]
    kind = sec.get("kind", "disc")
    h = sec.getfloat("h", 0.1)
    if kind == "disc":
        return dv.Region.disc(sec.getfloat("radius"), h)
    return dv.Region.rectangle(sec.getfloat("xmin"), sec.getfloat("xmax"),
                               sec.getfloat("ymin"), sec.getfloat("ymax"), h)


def _provenance(cfg: configparser.ConfigParser, command: str) -> str:
    lines = [f"# fockdiv {command}"]
    for section in cfg.sections():
        for key, value in sorted(cfg.items(section)):
            lines.append(f"# {section}.{key}={value}")
    return "\n".join(lines) + "\n"


def cmd_geometry(cfg) -> dict[str, list[str]]:
    X = load_divisor(cfg)
    W = load_window(cfg)
    margins = _floats(cfg.get("geometry", "margins", fallback="0.0"))
    rows = ["record,C,mode,value,aux1,aux2"]
    s_est = dv.overlap_constant(X, W)
    rows.append(f"overlap_constant,,,{s_est},,")
    covering = dv.covering_margin(X, margins, W)
    for C, entries in zip(margins, covering):
        for mode, entry in zip(("expand", "shrink"), entries):
            if entry is None:
                rows.append(f"covering,{C:g},{mode},empty-system,,")
                continue
            wz, margin = entry
            rows.append(f"covering,{C:g},{mode},{margin:.12g},"
                        f"{wz.real:.12g},{wz.imag:.12g}")
        ok, worst = dv.disjointness_check(X, C, expand=True)
        rows.append(f"disjoint,{C:g},expand,{int(ok)},"
                    f"{'' if worst[0] is None else worst[0]},"
                    f"{worst[2]:.12g}")
    return {"geometry.csv": rows}


def cmd_frame(cfg) -> dict[str, list[str]]:
    X = load_divisor(cfg)
    truncations = _ints(cfg.get("frame", "truncations", fallback="120"))
    frame_rows = ["N,A,B,tail_bound"]
    mx_rows = ["param,MX,N"]
    for report in fr.frame_sweep(X, truncations):
        n = report.truncation
        frame_rows.append(report.csv_row())
        mx_rows.append(f"{n},{report.mx:.12g},{n}")
    return {"frame.csv": frame_rows, "mx.csv": mx_rows}


def cmd_uniqueness(cfg) -> dict[str, list[str]]:
    X = load_divisor(cfg)
    W = load_window(cfg)
    radii = _floats(cfg.get("uniqueness", "radii", fallback="10,15,20,25,30"))
    report = pt.uniqueness_certificate(X, W, radii)
    summary = ["key,value",
               f"verdict,{report.verdict}",
               f"area_K,{report.area_K:.12g}",
               f"area_error,{report.area_error:.6g}",
               f"R0,{report.R0:.12g}",
               f"slope,{report.slope:.12g}",
               f"slope_benchmark,{report.slope_benchmark:.12g}"]
    return {"redistribution.csv": report.curve.csv().splitlines(),
            "uniqueness_summary.csv": summary}


def dichotomy_point(mult: int, param: float) -> tuple[int, float, float]:
    """(truncation, lower frame bound A, interpolation constant M_X) for
    the symmetric two-node divisor at +/- param * sqrt(mult), param > 0,
    each node of multiplicity mult, at the critical truncation
    N = 2 * mult.

    At critical truncation the restriction matrix is square: the divisor
    can only be simultaneously well-sampling and well-interpolating if
    that matrix is well conditioned, and the conditioning collapses as
    the multiplicity grows no matter where the nodes sit.  R splits by
    parity into two real mult x mult blocks (symmetric_pair_report)."""
    report = fr.symmetric_pair_report(param * math.sqrt(mult), mult, 2 * mult)
    return 2 * mult, report.lower, report.mx


def dichotomy_sweep(mults, params) -> list[dict]:
    """Trade-off table over the two-node family, one row per
    (multiplicity, parameter): no parameter keeps both 1/A and M_X small
    once the multiplicity grows.  Rank rule: where sigma_min/sigma_max of
    the square restriction matrix is at most 1e-12, the row holds A = 0
    and M_X = inf; such a row is not a measurement."""
    rows = []
    for mult in mults:
        for p in params:
            n, lower, mx = dichotomy_point(mult, p)
            inv_a = math.inf if lower <= 0 else 1.0 / lower
            rows.append({
                "multiplicity": int(mult), "param": float(p), "N": n,
                "A": lower, "MX": mx, "inv_A": inv_a,
                "max_metric": max(inv_a, mx),
            })
    return rows


def cmd_dichotomy(cfg) -> dict[str, list[str]]:
    sec = cfg["dichotomy"] if cfg.has_section("dichotomy") else {}
    mults = _ints(sec.get("multiplicities", "4,16,36,64"))
    params = _floats(sec.get("params",
                             "0.5,0.6,0.7,0.8,0.9,1.0,1.1,1.2,1.3"))
    if not mults or not params:
        raise ParameterError("dichotomy family is empty")
    rows = dichotomy_sweep(mults, params)
    lines = ["multiplicity,param,N,A,MX,inv_A,max_metric"]
    for row in rows:
        lines.append(f"{row['multiplicity']},{row['param']:g},{row['N']},"
                     f"{row['A']:.12g},{row['MX']:.12g},"
                     f"{row['inv_A']:.12g},{row['max_metric']:.12g}")
    return {"dichotomy.csv": lines}


_COMMANDS = {
    "geometry": cmd_geometry,
    "frame": cmd_frame,
    "uniqueness": cmd_uniqueness,
    "dichotomy": cmd_dichotomy,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fockdiv", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)
    cfg = configparser.ConfigParser()
    if not Path(args.config).exists():
        print(f"fockdiv: config not found: {args.config}", file=sys.stderr)
        return EXIT_PRECONDITION
    cfg.read(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = _provenance(cfg, args.command)
    try:
        # each study returns its reports as CSV rows, keyed by file name
        for name, rows in _COMMANDS[args.command](cfg).items():
            (out / name).write_text(header + "\n".join(rows) + "\n",
                                    encoding="utf-8")
    except (PreconditionError, ParameterError, DomainError,
            configparser.Error) as exc:
        print(f"fockdiv: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ResourceError as exc:
        print(f"fockdiv: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:  # noqa: BLE001
        print(f"fockdiv: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
