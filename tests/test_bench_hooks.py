"""The benchmark tracer's patch points all resolve in the package.

bench/tracer.py wraps each PATCHES attribute and fockdiv.potential's
integrate.quad by name after every sample, traced or not, so deleting or
renaming one of them breaks every benchmark run; this catches it here.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_wraps_and_restores():
    tracer = load_tracer()
    assert tracer.patched_names() == []
    t = tracer.Tracer("hooks")
    try:
        t.install()
        wrapped = tracer.patched_names()
    finally:
        t.uninstall()
    assert wrapped == ([f"{module}.{attr}" for module, attr, _ in
                        tracer.PATCHES]
                       + [f"{tracer.QUAD_MODULE}.integrate.quad"])
    assert tracer.patched_names() == []
