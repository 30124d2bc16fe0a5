"""Experiment runner: reproducible desk-scale studies over a config file.

Usage:
    fockdiv <geometry|frame|uniqueness|dichotomy> --config cfg.ini
            [--out DIR]

Config is an INI file; every report starts with '#'-prefixed provenance
lines echoing the effective configuration.  Exit codes: 0 success,
1 internal error, 2 malformed config or failed hypothesis, 3 resource cap.
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
    """Comma-separated counts (multiplicities, truncations), each >= 1."""
    vals = [int(x) for x in text.replace(";", ",").split(",") if x.strip()]
    if min(vals, default=1) < 1:
        raise ValueError("every value must be >= 1")
    return vals


def _read(cfg: configparser.ConfigParser, key: str, convert=float,
          fallback: str | None = None):
    """convert of the text at key ('section.option'), else of fallback; a
    missing or unreadable value raises ParameterError naming the key."""
    text = cfg.get(*key.split("."), fallback=fallback)
    if text is None:
        raise ParameterError(f"config needs {key}")
    try:
        return convert(text)
    except (ValueError, KeyError) as exc:
        raise ParameterError(f"cannot read {key} = {text!r}: {exc}") from None


def load_divisor(cfg: configparser.ConfigParser) -> dv.Divisor:
    alpha = _read(cfg, "divisor.alpha", float, "1")
    source = _read(cfg, "divisor.source", str, "lattice")
    if source == "file":
        path = _read(cfg, "divisor.file", str)
        if not path or not Path(path).is_file():
            raise ParameterError(f"divisor.file is not a file: {path!r}")
        return dv.Divisor.from_csv(path, alpha=alpha)
    if source == "lattice":
        return dv.lattice(spacing=_read(cfg, "divisor.spacing"),
                          mult=_read(cfg, "divisor.multiplicity", int),
                          extent=_read(cfg, "divisor.extent"), alpha=alpha,
                          hole_radius=_read(cfg, "divisor.hole_radius",
                                            float, "0"))
    if source == "rings":
        return dv.radial_rings(
            _read(cfg, "divisor.ring_radii", _floats),
            _read(cfg, "divisor.ring_mults", _ints), alpha=alpha,
            include_center=_read(cfg, "divisor.include_center",
                                 lambda t: cfg.BOOLEAN_STATES[t.lower()], "no"),
            center_mult=_read(cfg, "divisor.center_mult", int, "1"))
    raise ParameterError(f"unknown divisor source {source!r}")


def load_window(cfg: configparser.ConfigParser) -> dv.Region:
    kind = _read(cfg, "window.kind", str, "disc")
    h = _read(cfg, "window.h", float, "0.1")
    if kind == "disc":
        return dv.Region.disc(_read(cfg, "window.radius"), h)
    if kind == "rect":
        return dv.Region(tuple(_read(cfg, f"window.{bound}") for bound
                               in ("xmin", "xmax", "ymin", "ymax")), h)
    raise ParameterError(f"unknown window.kind {kind!r} (disc or rect)")


def _provenance(cfg: configparser.ConfigParser, command: str) -> str:
    lines = [f"# fockdiv {command}"]
    for section in cfg.sections():
        for key, value in sorted(cfg.items(section)):
            lines.append(f"# {section}.{key}={value}")
    return "\n".join(lines) + "\n"


def cmd_geometry(cfg) -> dict[str, list[str]]:
    X = load_divisor(cfg)
    W = load_window(cfg)
    margins = _read(cfg, "geometry.margins", _floats, "0.0")
    rows = ["record,C,mode,value,aux1,aux2"]
    rows.append(f"overlap_constant,,,{dv.overlap_constant(X)},,")
    covering = dv.covering_margin(X, margins, W)
    disjoint = dv.disjointness_check(X, margins)
    for C, entries, (ok, worst) in zip(margins, covering, disjoint):
        for mode, entry in zip(("expand", "shrink"), entries):
            if entry is None:
                rows.append(f"covering,{C:g},{mode},empty-system,,")
                continue
            wz, margin = entry
            rows.append(f"covering,{C:g},{mode},{margin:.12g},"
                        f"{wz.real:.12g},{wz.imag:.12g}")
        rows.append(f"disjoint,{C:g},expand,{int(ok)},"
                    f"{'' if worst[0] is None else worst[0]},"
                    f"{worst[2]:.12g}")
    return {"geometry.csv": rows}


def cmd_frame(cfg) -> dict[str, list[str]]:
    X = load_divisor(cfg)
    truncations = _read(cfg, "frame.truncations", _ints, "120")
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
    radii = _read(cfg, "uniqueness.radii", _floats, "10,15,20,25,30")
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


def dichotomy_sweep(mults, params) -> list[dict]:
    """Trade-off table over the symmetric two-node family, one row per
    (multiplicity m, parameter p > 0): nodes at +/- p sqrt(m), each of
    multiplicity m, at the critical truncation N = 2m.  There R is square:
    the divisor can only be simultaneously well-sampling and
    well-interpolating if R is well conditioned, and the conditioning
    collapses as m grows no matter where the nodes sit, so no parameter
    keeps both 1/A and M_X small.  R splits by parity into two real m x m
    blocks (symmetric_pair_report).  Rank rule: where sigma_min/sigma_max
    of R is at most 1e-12, the row holds A = 0 and M_X = inf; such a row
    is not a measurement."""
    rows = []
    for mult in mults:
        for p in params:
            report = fr.symmetric_pair_report(p * math.sqrt(mult), mult,
                                              2 * mult)
            inv_a = math.inf if report.lower <= 0 else 1.0 / report.lower
            rows.append({
                "multiplicity": int(mult), "param": float(p),
                "N": report.truncation, "A": report.lower, "MX": report.mx,
                "inv_A": inv_a, "max_metric": max(inv_a, report.mx),
            })
    return rows


def cmd_dichotomy(cfg) -> dict[str, list[str]]:
    mults = _read(cfg, "dichotomy.multiplicities", _ints, "4,16,36,64")
    params = _read(cfg, "dichotomy.params", _floats,
                   "0.5,0.6,0.7,0.8,0.9,1.0,1.1,1.2,1.3")
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
    if not Path(args.config).is_file():
        print(f"fockdiv: config is not a file: {args.config}", file=sys.stderr)
        return EXIT_PRECONDITION
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        print(f"fockdiv: --out {args.out} is not a directory", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        cfg.read(args.config, encoding="utf-8-sig")  # a BOM is dropped
        header = _provenance(cfg, args.command)
        # each study returns its reports as CSV rows, keyed by file name
        for name, rows in _COMMANDS[args.command](cfg).items():
            (out / name).write_text(header + "\n".join(rows) + "\n",
                                    encoding="utf-8")
    except (PreconditionError, ParameterError, DomainError,
            configparser.Error, UnicodeDecodeError) as exc:
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
