"""fockdiv benchmark: the four CLI studies, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each sample is one fresh
interpreter (``bench/study.py``) running one ``fockdiv`` study, closed loop,
one at a time, for S seconds; every sample's outputs are checked.  With
``--trace 0`` the last stdout line holds the end-to-end metrics (medians over
the samples); with ``--trace 1`` untraced and traced samples alternate and
it holds the per-layer metrics.  Per-sample details, machine facts and the
spans are written to ``.bench_work/`` once the run ends.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0  # the whole run, generous start-up included
# The library default on a machine this size; recorded with every result.
BLAS_THREADS = str(len(os.sched_getaffinity(0)))
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (CLI study, shipped config file or generated config sections).
# Seed 0 runs these exactly; see bench/README.md for why each exists.
WORKLOADS = {
    "dichotomy": ("dichotomy", "configs/dichotomy.ini"),
    "uniqueness": ("uniqueness", "configs/uniqueness.ini"),
    "sampling": ("frame", {
        "divisor": {"source": "lattice", "spacing": "1.0",
                    "multiplicity": "1", "extent": "27",
                    "hole_radius": "3.0"},
        "frame": {"truncations": "150,300,450,600"},
    }),
    "geometry": ("geometry", {
        "divisor": {"source": "lattice", "spacing": "1.8",
                    "multiplicity": "2", "extent": "32",
                    "hole_radius": "2.5"},
        "window": {"kind": "disc", "radius": "32", "h": "0.25"},
        "geometry": {"margins": "0,0.5"},
    }),
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {"calls": "count", "entries": "count", "points": "count",
                   "evals": "count", "unique_frac": "ratio"}


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _lattice_csv(sec, dx: float, dy: float) -> str:
    """The holed lattice of ``fockdiv.divisor.lattice``, translated by
    (dx, dy), in the divisor CSV format."""
    spacing = float(sec["spacing"])
    n = int(math.floor(float(sec["extent"]) / spacing))
    hole = float(sec.get("hole_radius", "0"))
    lines = ["re,im,multiplicity"]
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            x, y = spacing * j, spacing * i
            if hole > 0 and math.hypot(x, y) < hole:
                continue
            lines.append(f"{x + dx:.17g},{y + dy:.17g},{sec['multiplicity']}")
    return "\n".join(lines) + "\n"


def make_config(workload: str, seed: int, work: Path) -> Path:
    """Config for one run.  Seed 0 is the workload as listed; any other
    seed translates the lattice by a quarter spacing at most (written as a
    ``source = file`` divisor) or lowers each dichotomy parameter by 0 to
    0.02 in steps of 0.001.  Lowering keeps every two-node point on the same
    side of the extended-precision switch at |z|^2 = 32; the steps keep the
    parameters on a grid whose every point was run once (see README)."""
    _, base = WORKLOADS[workload]
    cfg = configparser.ConfigParser()
    if isinstance(base, str):
        if seed == 0:
            return ROOT / base
        if not cfg.read(ROOT / base):
            raise FileNotFoundError(ROOT / base)
    else:
        cfg.read_dict(base)
    if seed != 0:
        rng = random.Random(seed)
        if cfg.has_section("divisor"):
            sec = cfg["divisor"]
            spacing = float(sec["spacing"])
            dx, dy = (spacing * rng.uniform(-0.25, 0.25) for _ in range(2))
            path = work / "divisor.csv"
            path.write_text(_lattice_csv(sec, dx, dy), encoding="utf-8")
            cfg.remove_section("divisor")
            cfg.read_dict({"divisor": {"source": "file", "file": str(path)}})
        if cfg.has_section("dichotomy"):
            params = [float(p) for p in cfg["dichotomy"]["params"].split(",")]
            cfg["dichotomy"]["params"] = ",".join(
                f"{p - rng.randint(0, 20) / 1000:.3f}" for p in params)
    path = work / "config.ini"
    with open(path, "w", encoding="utf-8") as fh:
        cfg.write(fh)
    return path


# ---------------------------------------------------------------------------
# one sample
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env.update({name: BLAS_THREADS for name in THREAD_ENV})
    return env


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child with its resource usage (which covers the processes
    it waited for), killing it at the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if _clock() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_sample(workload: str, seed: int, config: Path, work: Path,
               traced: bool, index: int, deadline: float) -> dict:
    study, _ = WORKLOADS[workload]
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    record_path = work / "record.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "study.py"), str(record_path),
           "1" if traced else "0", f"{workload}-{seed}-{index}", "--",
           study, "--config", str(config), "--out", str(out)]
    with open(work / "child.log", "a", encoding="utf-8") as log:
        log.write(f"== sample {index} traced={int(traced)}\n")
        log.flush()
        spawned = _clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                                stdout=log, stderr=log)
        usage = _wait(proc, deadline)
    sample = {"index": index, "traced": traced, "exit": proc.returncode,
              "peak_rss_mb": usage.ru_maxrss / 1024.0, "errors": []}
    if proc.returncode != 0 or not record_path.exists():
        sample["errors"].append(f"study exited with {proc.returncode}")
        return sample
    record = json.loads(record_path.read_text(encoding="utf-8"))
    sample.update(setup_s=record["imported"] - spawned,
                  wall_s=record["wall_s"], versions=record["versions"],
                  layers=record.get("layers"), spans=record.get("spans"))
    sample["errors"] += record["selftest"]
    sample["errors"] += check.check(workload, seed, out)
    return sample


# ---------------------------------------------------------------------------
# facts and summary
# ---------------------------------------------------------------------------

def _src_facts() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(data)
        lines += data.count(b"\n")
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"src_lines": lines, "src_sha256": digest.hexdigest(),
            "commit": commit}


def machine_facts(samples: list[dict]) -> dict:
    versions = next((s["versions"] for s in samples if "versions" in s), {})
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "thread_env": {k: _child_env()[k] for k in THREAD_ENV},
            **versions, **_src_facts()}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def per_layer_metrics(samples: list[dict]) -> dict:
    plain = [s["wall_s"] for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        value = statistics.median(s["layers"][name] for s in traced)
        unit = PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")
        metrics[name] = {"value": value, "unit": unit}
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": traced_wall - statistics.median(plain), "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    begun = _clock()
    missing = [p for p in ("src/fockdiv/cli.py", "configs")
               if not (ROOT / p).exists()]
    if missing:
        print(f"bench: not a fockdiv checkout, missing {missing}",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = make_config(args.workload, args.seed, work)
    # Warm the file cache and bytecode once, outside every sample.
    subprocess.run([sys.executable, "-c", "import fockdiv.cli"], cwd=ROOT,
                   env=_child_env(), check=False, timeout=120)

    samples: list[dict] = []
    stop_at = _clock() + args.seconds
    hard_stop = begun + RUN_LIMIT_S
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        sample = run_sample(args.workload, args.seed, config, work, traced,
                            len(samples), hard_stop)
        samples.append(sample)
        for err in sample["errors"]:
            print(f"bench: sample {sample['index']}: {err}", file=sys.stderr)
        if _clock() >= hard_stop:
            break
        kinds = {s["traced"] for s in samples if "wall_s" in s}
        if _clock() >= stop_at and (not args.trace or len(kinds) == 2):
            break

    finished = [s for s in samples if "wall_s" in s]
    failed = sum(1 for s in samples if s["errors"])
    facts = machine_facts(samples)
    print(f"bench: workload={args.workload} study={WORKLOADS[args.workload][0]}"
          f" seed={args.seed} trace={args.trace} attempted={len(samples)}"
          f" failed={failed} fail_frac={failed / len(samples):.4g}")
    print("facts: " + json.dumps(facts, sort_keys=True))
    if {s["traced"] for s in finished} != ({False, True} if args.trace
                                           else {False}):
        print("bench: no sample completed", file=sys.stderr)
        return 1

    untraced = [s for s in finished if not s["traced"]]
    stats = {name: (summarize([s[name] for s in untraced]), unit)
             for name, unit in END_TO_END}
    for name, (st, unit) in stats.items():
        print(f"{name}: median={st['median']:.6g} q1={st['q1']:.6g} "
              f"q3={st['q3']:.6g} n={st['n']} {unit}")
    if args.trace:
        metrics = per_layer_metrics(finished)
        wall = metrics["trace.wall_s"]["value"]
        for name, m in metrics.items():
            share = f" ({m['value'] / wall:.1%} of traced wall_s)" \
                if m["unit"] == "s" and not name.startswith("trace.") else ""
            print(f"{name}: {m['value']:.6g} {m['unit']}{share}")
    else:
        metrics = {name: {"value": st["median"], "unit": unit}
                   for name, (st, unit) in stats.items()}

    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "facts": facts, "end_to_end": {
            name: st for name, (st, _) in stats.items()},
            "metrics": metrics, "samples": samples}, fh)
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
