"""The exit-code contract of the CLI: every config exits 0, 2 or 3, never 1.

A derandomized Hypothesis search sets one key, or two at once, of one
study's small base config to a hostile value, or gives a rings base lists
of 200 items, and runs ``cli.main`` in process, with RuntimeWarning raised
as an error and an alarm on each example.  The bad-input configs, each
with the exit code it must give, are the one-key search's explicit
examples."""

import contextlib
import io
import signal
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockdiv.cli import main

ROOT = Path(__file__).resolve().parents[1]
ALARM_S = 20

FLOATS = ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e150", "1e200",
          "1e308", "abc"]
COUNTS = ["0", "1", "64", "1000000", "1.5"]
TEXTS = ["abc", "", "file", "rings", "rect", "yes", "{dir}"]
COUNT_KEYS = {"multiplicity", "ring_mults", "center_mult", "truncations",
              "multiplicities"}
TEXT_KEYS = {"source", "kind", "file", "include_center"}
# the body of {dir}/d.csv, and the hostile bodies of its pseudo-key "csv"
LATTICE_CSV = "re,im,multiplicity\n" + "".join(
    f"{1.5 * x},{1.5 * y},2\n" for x in range(-4, 5) for y in range(-4, 5))
BOM = "\ufeff"
CSV_BODIES = ["re,im,multiplicity\n0,0,2\nnan,0,2\n",
              "re,im,multiplicity\n0,0,2\n1e200,0,2\n",
              BOM + LATTICE_CSV, "re,im,multiplicity\n1,1,2\n1,1,2\n",
              "re,im,multiplicity\n", ""]

LATTICE = {"source": "lattice", "spacing": "1.5", "multiplicity": "2",
           "extent": "6", "hole_radius": "0", "alpha": "1"}
RINGS = {"source": "rings", "ring_radii": "1.5,3", "ring_mults": "2,3",
         "include_center": "yes", "center_mult": "4", "alpha": "2"}
FILE = {"source": "file", "file": "{dir}/d.csv", "alpha": "1", "csv": ""}
DISC = {"kind": "disc", "radius": "7", "h": "0.2"}
RECT = {"kind": "rect", "xmin": "-7", "xmax": "7", "ymin": "-5",
        "ymax": "5", "h": "0.25"}
BASES = [
    ("geometry", {"divisor": LATTICE, "window": DISC,
                  "geometry": {"margins": "0,0.25"}}),
    ("geometry", {"divisor": RINGS, "window": RECT,
                  "geometry": {"margins": "0,0.5"}}),
    ("frame", {"divisor": LATTICE, "frame": {"truncations": "10,20"}}),
    ("frame", {"divisor": RINGS, "frame": {"truncations": "12,30"}}),
    ("frame", {"divisor": FILE, "frame": {"truncations": "20,40"}}),
    ("geometry", {"divisor": FILE, "window": dict(DISC, radius="6"),
                  "geometry": {"margins": "0,0.25"}}),
    ("uniqueness", {"divisor": dict(LATTICE, spacing="1.2", extent="14"),
                    "window": dict(DISC, radius="14", h="0.3"),
                    "uniqueness": {"radii": "5,7,9,11"}}),
    ("uniqueness", {"divisor": FILE, "window": dict(DISC, radius="6"),
                    "uniqueness": {"radii": "2,3,4,5"}}),
    ("dichotomy", {"dichotomy": {"multiplicities": "1,4",
                                 "params": "0.6,1.0"}}),
]


def render(sections: dict) -> str:
    return "".join(f"[{name}]\n" + "".join(
        f"{key} = {value}\n" for key, value in options.items() if key != "csv")
        for name, options in sections.items())


def hostile_values(key: str) -> list[str]:
    return (CSV_BODIES if key == "csv" else TEXTS if key in TEXT_KEYS
            else COUNTS if key in COUNT_KEYS else FLOATS)


def set_hostile(sections: dict, section: str, key: str, value: str) -> None:
    """The last item of the key's list replaced by value."""
    head, comma, _ = sections[section][key].rpartition(",")
    sections[section][key] = head + comma + value


@st.composite
def one_hostile_key(draw):
    """(study, config text, CSV body, None): one key of a base config set
    to a hostile value, the last item of a list replaced."""
    study, base = draw(st.sampled_from(BASES))
    section, key = draw(st.sampled_from(
        [(name, key) for name, options in base.items() for key in options]))
    value = draw(st.sampled_from(hostile_values(key)))
    sections = {name: dict(options) for name, options in base.items()}
    if key == "csv":
        return study, render(sections), value, None
    set_hostile(sections, section, key, value)
    return study, render(sections), LATTICE_CSV, None


@st.composite
def two_hostile_keys(draw):
    """(study, config text, CSV body, None): two keys of a base config set
    to hostile values at once."""
    study, base = draw(st.sampled_from(BASES))
    keys = draw(st.lists(st.sampled_from(
        [(name, key) for name, options in base.items() for key in options]),
        min_size=2, max_size=2, unique=True))
    sections = {name: dict(options) for name, options in base.items()}
    body = LATTICE_CSV
    for section, key in keys:
        value = draw(st.sampled_from(hostile_values(key)))
        if key == "csv":
            body = value
        else:
            set_hostile(sections, section, key, value)
    return study, render(sections), body, None


# 200 rings as (radii, multiplicities), one node each: all within 0.2 of
# the origin, or from radius 1.5 to 51.25 with discs of radius 707; and 200
# light rings over the same radii (about 15,000 nodes) whose first ring is
# one heavy disc of radius 707 containing all the others, which once made
# the node-pair search list every pair (ROADMAP item 19)
LIGHT = [f"{1.5 + 0.25 * i:g}" for i in range(200)]
RING_LISTS = [([f"{0.001 * i:g}" for i in range(1, 201)], ["2", "3"] * 100),
              (LIGHT, ["1000000"] * 200),
              (LIGHT, ["1000000"] + ["3", "2"] * 99 + ["3"])]


@st.composite
def many_rings(draw):
    """(study, config text, CSV body, None): a rings base given 200 radii
    and multiplicities, one item of either list hostile, or the
    multiplicities one short."""
    study, base = draw(st.sampled_from(
        [(study, base) for study, base in BASES
         if base.get("divisor") is RINGS]))
    radii, mults = map(list, draw(st.sampled_from(RING_LISTS)))
    change = draw(st.sampled_from(["none", "radius", "mult", "short"]))
    if change == "short":
        mults.pop()
    elif change != "none":
        items = radii if change == "radius" else mults
        items[draw(st.integers(0, 199))] = draw(st.sampled_from(
            FLOATS if change == "radius" else COUNTS))
    sections = {name: dict(options) for name, options in base.items()}
    sections["divisor"].update(ring_radii=",".join(radii),
                               ring_mults=",".join(mults))
    return study, render(sections), LATTICE_CSV, None


def _shipped(name: str, key: str, value: str) -> str:
    lines = (ROOT / "configs" / f"{name}.ini").read_text(
        encoding="utf-8").splitlines()
    return "".join((f"{key} = {value}" if line.startswith(f"{key} =")
                    else line) + "\n" for line in lines)


# bad inputs, with the exit code each must give: non-finite or mismatched
# generator inputs, files that are directories, radii and bounds past the
# 1e150 limit exit 2; counts past a cap exit 3 before anything is built;
# byte-order marks exit 0
CI_CASES = [
    ("dichotomy", "[dichotomy]\nparams = 0.6\udcff\n", "", 2),  # not UTF-8
    ("frame", "[divisor]\nspacing = nan\nmultiplicity = 1\nextent = 5\n",
     "", 2),
    ("frame", "[divisor]\nsource = rings\nring_radii = 3,4\n"
              "ring_mults = 2\n", "", 2),
    ("frame", "[divisor]\nsource = file\nfile = {dir}\n", "", 2),
    ("frame", "[divisor]\nspacing = 0.005\nmultiplicity = 1\nextent = 5\n",
     "", 3),
    ("frame", "[divisor]\nspacing = 1e-300\nmultiplicity = 1\n"
              "extent = 2.2\n", "", 3),
    ("frame", "[divisor]\nspacing = 2.2\nmultiplicity = 1\nextent = 1e200\n",
     "", 3),
    ("uniqueness", _shipped("uniqueness", "radii", "10,14,18,inf"), "", 2),
    ("dichotomy", "[dichotomy]\nmultiplicities = 6400\n", "", 3),
    ("dichotomy", "[dichotomy]\nmultiplicities = 2\nparams = 1e154\n", "", 2),
    ("frame", "[divisor]\nspacing = 2\nmultiplicity = 1\nextent = 4\n"
              "alpha = 1e308\n[frame]\ntruncations = 10\n", "", 2),
    ("geometry", _shipped("geometry", "margins", "0,1e308"), "", 2),
    ("geometry", "[divisor]\nspacing = 1.5\nmultiplicity = 2\nextent = 6\n"
                 "[window]\nkind = rect\nxmin = 1e200\n"
                 "xmax = 1.00000000001e200\nymin = 0\nymax = 1e190\n"
                 "h = 1e189\n", "", 2),
    ("geometry", "[divisor]\nspacing = 1e149\nmultiplicity = 1000000\n"
                 "extent = 1e149\nalpha = 1e-308\n[window]\nradius = 5\n",
     "", 2),
    ("geometry", _shipped("geometry", "h", "1e-300"), "", 3),
    ("uniqueness", _shipped("uniqueness", "h", "1e-300"), "", 3),
    ("geometry", "[divisor]\nsource = file\nfile = {dir}/d.csv\n"
                 "[window]\nradius = 6\n", BOM + LATTICE_CSV, 0),
    ("frame", "[divisor]\nsource = file\nfile = {dir}/d.csv\n"
              "[frame]\ntruncations = 10\n",
     BOM + "re,im,multiplicity\n0,0,2\n1.5,0,3\n", 0),
]


@contextlib.contextmanager
def alarm(seconds: float):
    """TimeoutError (so exit 1 from cli.main) once seconds have passed."""
    def ring(signum, frame):
        raise TimeoutError(f"example ran past {seconds} s")
    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def with_ci_cases(test):
    for case in CI_CASES:
        test = example(case=case)(test)
    return test


@with_ci_cases
@given(case=one_hostile_key())
@settings(max_examples=800, deadline=None, derandomize=True)
def test_exit_code_contract(case):
    run_case(case)


@given(case=two_hostile_keys())
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_exit_code_contract_two_keys(case):
    run_case(case)


@given(case=many_rings())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_exit_code_contract_many_rings(case):
    run_case(case)


def run_case(case):
    """Run cli.main on the case's config in a scratch directory, with
    RuntimeWarning an error and the alarm set; check its exit code."""
    study, text, body, want = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        text = text.replace("{dir}", tmp)
        (Path(tmp) / "d.csv").write_text(body, encoding="utf-8")
        config = Path(tmp) / "c.ini"
        config.write_bytes(text.encode("utf-8", "surrogateescape"))
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                alarm(ALARM_S):
            warnings.simplefilter("error", RuntimeWarning)
            code = main([study, "--config", str(config), "--out",
                         str(Path(tmp) / "out")])
    message = f"{study} exited {code}: {err.getvalue()}\n{text}"
    assert code in (0, 2, 3) if want is None else code == want, message
