"""Output checks for the benchmark's workloads.

Seed 0 runs the workloads exactly as listed, so its outputs are compared
with the reference outputs in ``bench/reference/`` (made once from the seed
commit by ``bench/make_reference.py``).  Other seeds move the inputs, so
their outputs are checked against invariants instead.  The ``#`` provenance
lines echo the config and the CLI flags and are never compared.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
# Today's eigvalsh(R* R) cannot resolve a lower frame bound below ~1e-14 B:
# dichotomy rows under that floor are not measurements, and the floor is
# also the absolute precision of the ones above it.
A_FLOOR = 1e-14
VERDICT = "not a zero divisor (certificate grows)"


def _body(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    return [line for line in text.splitlines() if not line.startswith("#")]


def _rows(path: Path) -> list[dict]:
    return list(csv.DictReader(_body(path)))


def _close(value: str, ref: str, rel: float, abs_tol: float = 0.0) -> bool:
    a, b = float(value), float(ref)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * abs(b) + abs_tol


def _same_body(out: Path, ref: Path, name: str) -> list[str]:
    if _body(out / name) != _body(ref / name):
        return [f"{name} differs from the reference"]
    return []


def _compare(rows, ref_rows, name, exact, tolerances) -> list[str]:
    """Row-by-row comparison: ``exact`` columns as text, ``tolerances``
    maps a column to a function (row, ref_row) -> bool."""
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    errors = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col in exact:
            if row[col] != ref[col]:
                errors.append(f"{name} row {i}: {col}={row[col]} "
                              f"!= {ref[col]}")
        for col, ok in tolerances.items():
            if not ok(row, ref):
                errors.append(f"{name} row {i}: {col}={row[col]} "
                              f"vs reference {ref[col]}")
    return errors


def check_dichotomy(out: Path, reference: bool) -> list[str]:
    rows = _rows(out / "dichotomy.csv")
    errors = [] if len(rows) == 36 else [f"dichotomy: {len(rows)} rows"]
    for i, row in enumerate(rows):
        if int(row["N"]) != 2 * int(row["multiplicity"]):
            errors.append(f"dichotomy row {i}: N is not 2 m")
        if not float(row["A"]) >= 0 or not float(row["MX"]) > 0:
            errors.append(f"dichotomy row {i}: A={row['A']} MX={row['MX']}")
    if not reference:
        return errors
    ref_dir = REFERENCE / "dichotomy"
    upper = {(r["multiplicity"], r["param"]): float(r["B"])
             for r in _rows(ref_dir / "upper.csv")}

    def measured(ref):
        return float(ref["A"]) > A_FLOOR * upper[ref["multiplicity"],
                                                 ref["param"]]

    def a_ok(row, ref):
        return not measured(ref) or _close(
            row["A"], ref["A"], 1e-6,
            A_FLOOR * upper[ref["multiplicity"], ref["param"]])

    def mx_ok(row, ref):
        return not measured(ref) or _close(row["MX"], ref["MX"], 1e-6)

    return errors + _compare(rows, _rows(ref_dir / "dichotomy.csv"),
                             "dichotomy", ("multiplicity", "param", "N"),
                             {"A": a_ok, "MX": mx_ok})


def check_uniqueness(out: Path, reference: bool) -> list[str]:
    summary = {r["key"]: r["value"]
               for r in _rows(out / "uniqueness_summary.csv")}
    curve = _rows(out / "redistribution.csv")
    errors = []
    if summary.get("verdict") != VERDICT:
        errors.append(f"uniqueness verdict: {summary.get('verdict')!r}")
    values = [float(r["I"]) for r in curve]
    if len(curve) != 8 or min(values) < 0 or any(
            b < a for a, b in zip(values, values[1:])):
        errors.append("redistribution curve: wrong length, negative "
                      "or decreasing")
    if not reference:
        return errors
    ref_dir = REFERENCE / "uniqueness"
    return (errors + _same_body(out, ref_dir, "uniqueness_summary.csv")
            + _compare(curve, _rows(ref_dir / "redistribution.csv"),
                       "redistribution", ("R",), {
                           "I": lambda r, f: _close(r["I"], f["I"], 1e-9),
                           "piR2_half": lambda r, f: _close(
                               r["piR2_half"], f["piR2_half"], 1e-12),
                           "excess": lambda r, f: _close(
                               r["excess"], f["excess"], 0.0,
                               1e-9 * float(f["I"]))}))


def check_sampling(out: Path, reference: bool) -> list[str]:
    frame = _rows(out / "frame.csv")
    mx = _rows(out / "mx.csv")
    errors = []
    if len(frame) != 4 or len(mx) != 4:
        errors.append(f"frame.csv/mx.csv: {len(frame)}/{len(mx)} rows")
    for i, row in enumerate(frame):
        if not 0 <= float(row["A"]) <= float(row["B"]):
            errors.append(f"frame row {i}: A={row['A']} B={row['B']}")
    if not reference:
        return errors
    ref_dir = REFERENCE / "sampling"

    def rel8(col):
        return lambda r, f: _close(r[col], f[col], 1e-8)

    return (errors
            + _compare(frame, _rows(ref_dir / "frame.csv"), "frame", ("N",),
                       {"A": rel8("A"), "B": rel8("B"),
                        "tail_bound": rel8("tail_bound")})
            + _compare(mx, _rows(ref_dir / "mx.csv"), "mx", ("param", "N"),
                       {"MX": rel8("MX")}))


def check_geometry(out: Path, reference: bool) -> list[str]:
    rows = _rows(out / "geometry.csv")
    records = [(r["record"], r["mode"]) for r in rows]
    expected = [("overlap_constant", "")] + [
        ("covering", "expand"), ("covering", "shrink"),
        ("disjoint", "expand")] * 2
    errors = []
    if records != expected:
        errors.append(f"geometry records: {records}")
    elif int(rows[0]["value"]) < 1:
        errors.append(f"overlap constant {rows[0]['value']}")
    if not reference:
        return errors
    return errors + _same_body(out, REFERENCE / "geometry", "geometry.csv")


CHECKS = {"dichotomy": check_dichotomy, "uniqueness": check_uniqueness,
          "sampling": check_sampling, "geometry": check_geometry}


def check(workload: str, seed: int, out: Path) -> list[str]:
    """Problems with one sample's outputs; empty when they are correct."""
    try:
        return CHECKS[workload](out, seed == 0)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{workload} outputs unreadable: {exc!r}"]
