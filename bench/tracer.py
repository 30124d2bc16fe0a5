"""In-memory span tracer for one CLI study, installed from outside the package.

Each layer function is replaced at the name its caller looks it up by (the
package binds several of them with ``from ... import``), so the program
itself is unchanged.  A span records its name, start, end, parent span and
run id; self time is a span's duration minus the durations of its children.
Spans stay in memory and are handed back once, when the study ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time

MARKER = "__bench_span__"

# (module, attribute, span name).  The attribute is the name the caller
# resolves at call time; e.g. fockdiv.frame calls displacement_matrix through
# its own module globals, and fockdiv.potential holds its own _count_scan.
PATCHES = (
    ("fockdiv.cli", "load_divisor", "cli.load"),
    ("fockdiv.cli", "load_window", "cli.load"),
    ("fockdiv.frame", "displacement_matrix", "fock.displacement"),
    ("fockdiv.frame", "restriction_matrix", "frame.restriction"),
    ("fockdiv.frame", "frame_bounds", "frame.spectral"),
    ("fockdiv.frame", "interpolation_constant", "frame.spectral"),
    ("fockdiv.divisor", "_count_scan", "divisor.scan"),
    ("fockdiv.divisor", "_margin_scan", "divisor.scan"),
    ("fockdiv.potential", "_count_scan", "divisor.scan"),
    ("fockdiv.divisor", "overlap_constant", "divisor.overlap"),
    ("fockdiv.divisor", "covering_margin", "divisor.covering"),
    ("fockdiv.divisor", "disjointness_check", "divisor.disjoint"),
    ("fockdiv.potential", "redistribution_integral",
     "potential.redistribution"),
    ("fockdiv.potential", "uniqueness_certificate", "potential.certificate"),
)
# scipy.integrate as seen by fockdiv.potential; only its quad is traced.
QUAD_MODULE = "fockdiv.potential"
ROOT = "cli.main"


def _displacement_entries(args, kwargs) -> int:
    n = int(args[1] if len(args) > 1 else kwargs["n"])
    ncols = args[2] if len(args) > 2 else kwargs.get("ncols")
    return n * (n if ncols is None else int(ncols))


def _scan_points(args, kwargs) -> int:
    return int(len(args[0] if args else kwargs["points"]))


def _restriction_key(args, kwargs) -> str:
    divisor = args[0] if args else kwargs["divisor"]
    truncation = args[1] if len(args) > 1 else kwargs["truncation"]
    digest = hashlib.sha1()
    digest.update(divisor.centers.tobytes())
    digest.update(divisor.mults.tobytes())
    digest.update(repr((float(divisor.alpha), int(truncation))).encode())
    return digest.hexdigest()


class Tracer:
    """Spans of one process; ``run_id`` tags every span it records."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: dict[str, int] = {}
        self.restriction_keys: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "fock.displacement":
                self.count("fock.displacement.entries",
                           _displacement_entries(args, kwargs))
            elif name == "divisor.scan":
                self.count("divisor.scan.points", _scan_points(args, kwargs))
            elif name == "frame.restriction":
                self.restriction_keys.add(_restriction_key(args, kwargs))
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        setattr(traced, MARKER, name)
        return traced

    def _wrap_quad(self, quad):
        @functools.wraps(quad)
        def traced(func, *args, **kwargs):
            evals = 0

            def counted(*a):
                nonlocal evals
                evals += 1
                return func(*a)

            index = self.open("potential.quad")
            try:
                return quad(counted, *args, **kwargs)
            finally:
                self.close(index)
                self.count("potential.quad.evals", evals)

        setattr(traced, MARKER, "potential.quad")
        return traced

    def install(self) -> None:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        module = importlib.import_module(QUAD_MODULE)
        original = module.integrate
        self._saved.append((module, "integrate", original))
        setattr(module, "integrate",
                _ForwardingModule(original, quad=self._wrap_quad(original.quad)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def run(self, fn, *args):
        """Call ``fn`` inside the root span."""
        index = self.open(ROOT)
        try:
            return fn(*args)
        finally:
            self.close(index)

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def export(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "run": self.run_id}
                for name, start, end, parent in self.spans]


class _ForwardingModule:
    """Stand-in for a module: overridden names first, the rest forwarded."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def patched_names() -> list[str]:
    """Patch points that currently hold a tracing wrapper."""
    found = []
    for module_name, attr, _ in PATCHES:
        module = importlib.import_module(module_name)
        if hasattr(getattr(module, attr), MARKER):
            found.append(f"{module_name}.{attr}")
    module = importlib.import_module(QUAD_MODULE)
    if hasattr(module.integrate.quad, MARKER):
        found.append(f"{QUAD_MODULE}.integrate.quad")
    return found


def self_test(tracer: Tracer, wall_s: float) -> list[str]:
    """Problems with the recorded spans; empty when the trace is sound.

    Children must lie inside their parent, self times must be >= 0, and the
    self times must add up to the traced wall time within 1 %."""
    errors = []
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    if len(roots) != 1 or spans[roots[0]][0] != ROOT:
        errors.append(f"expected one root span {ROOT!r}, got {len(roots)}")
    for name, start, end, parent in spans:
        if end is None or end < start:
            errors.append(f"span {name} is open or reversed")
        elif parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                errors.append(f"span {name} leaves its parent "
                              f"{spans[parent][0]}")
    if errors:
        return errors
    own = tracer.self_times()
    if min(own) < 0:
        errors.append(f"negative self time {min(own):.3g} s")
    if abs(sum(own) - wall_s) > 0.01 * wall_s:
        errors.append(f"self times sum to {sum(own):.6f} s, "
                      f"traced wall is {wall_s:.6f} s")
    return errors


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced study, keyed by benchmark metric."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for (name, start, end, _), self_s in zip(tracer.spans, tracer.self_times()):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_s
    builds = calls.get("frame.restriction", 0)
    return {
        "fock.displacement.calls": calls.get("fock.displacement", 0),
        "fock.displacement.s": total.get("fock.displacement", 0.0),
        "fock.displacement.entries":
            tracer.counts.get("fock.displacement.entries", 0),
        "frame.restriction.calls": builds,
        "frame.restriction.self_s": own.get("frame.restriction", 0.0),
        "frame.restriction.unique_frac":
            len(tracer.restriction_keys) / builds if builds else 0.0,
        "frame.spectral.calls": calls.get("frame.spectral", 0),
        "frame.spectral.self_s": own.get("frame.spectral", 0.0),
        "divisor.scan.calls": calls.get("divisor.scan", 0),
        "divisor.scan.s": total.get("divisor.scan", 0.0),
        "divisor.scan.points": tracer.counts.get("divisor.scan.points", 0),
        "divisor.overlap.self_s": own.get("divisor.overlap", 0.0),
        "divisor.covering.s": total.get("divisor.covering", 0.0),
        "divisor.disjoint.s": total.get("divisor.disjoint", 0.0),
        "potential.redistribution.calls":
            calls.get("potential.redistribution", 0),
        "potential.redistribution.self_s":
            own.get("potential.redistribution", 0.0),
        "potential.quad.calls": calls.get("potential.quad", 0),
        "potential.quad.evals": tracer.counts.get("potential.quad.evals", 0),
        "potential.quad.s": total.get("potential.quad", 0.0),
        "potential.certificate.self_s": own.get("potential.certificate", 0.0),
        "cli.load.s": total.get("cli.load", 0.0),
        "cli.self_s": own.get(ROOT, 0.0),
    }
