#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for quanvaudio.

Run from the repository root:

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 40 --trace 0

One run is one process and a closed loop with one client: after set-up
it runs passes of the workload back to back, each from fresh output and
cache directories, until ``--seconds`` have passed. The end-to-end
metrics are medians over those passes. With ``--trace 1`` the run then
makes one more pass with every public callable of the traced modules
wrapped (see tracer.py), checks that its outputs equal the untraced
passes', and times a kernel table. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_ROUNDS = 3
IMPORT_PROBE = "import quanvaudio.cli, quanvaudio.harness"

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "fail_frac": "ratio", "outputs_ok": "bool"}


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) CPU time of the whole machine so far, from /proc/stat.

    On a virtual machine, steal is time the host ran something else on
    our virtual CPUs; it lengthens wall_s without any change in the code.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) == 8 else 0), sum(fields)


def blas_record() -> list[dict]:
    """Each BLAS library mapped into this process, with its thread count."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return []
    # the BLAS shared libraries themselves, not scipy's Python wrappers
    libs = sorted(p for p in paths if p.startswith("/") and "blas" in Path(p).name.lower()
                  and ".cpython-" not in p)
    out = []
    for path in libs:
        threads = None
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            lib = None
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
        out.append({"library": Path(path).name, "threads": threads})
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else ref
    return ref


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model)
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def setup(workload, seed: int, work: Path) -> tuple[list[float], Path]:
    """Set up SETUP_ROUNDS times; returns each round's time and the fixture.

    A round is a fresh interpreter importing the package (what every CLI
    call pays) plus generating the workload's fixture from the seed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_ROUNDS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, check=True)
        data = work / f"setup{i}" / "data"
        workload.make_fixture(data, seed)
        times.append(time.perf_counter() - start)
    for i in range(SETUP_ROUNDS - 1):
        shutil.rmtree(work / f"setup{i}")
    return times, data


def run_pass(workload, data: Path, pass_dir: Path, shape: dict):
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    state = workload.run_pass(data, pass_dir)
    wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    outcome = workload.check(data, pass_dir, state, shape)
    shutil.rmtree(pass_dir)
    return wall, cpu, outcome


def traced_pass(workload, data, pass_dir, shape, spans_path):
    from layers import trace_metrics, trace_tags_and_hooks, traced_counts
    from tracer import Tracer

    tags, hooks = trace_tags_and_hooks()
    tracer = Tracer(tags, hooks)
    tracer.install()
    try:
        start = time.perf_counter()
        state = workload.run_pass(data, pass_dir)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    outcome = workload.check(data, pass_dir, state, shape)
    shutil.rmtree(pass_dir)
    tracer.write_spans(spans_path)
    summary = tracer.summarize()
    return wall, outcome, summary, trace_metrics(summary), traced_counts(summary)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quanvaudio" / "__init__.py").is_file():
        print(f"perfbench: no quanvaudio sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The sweeps choose their cache explicitly; an inherited default would
    # turn the uncached workload's misses into hits.
    os.environ.pop("QUANVAUDIO_CACHE_DIR", None)
    import quanvaudio

    if Path(quanvaudio.__file__).resolve().parent != SRC / "quanvaudio":
        print(f"perfbench: imported {quanvaudio.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = environment(args.seed)
    setup_rounds, data = setup(workload, args.seed, work)
    shape = workload.shape(data)

    walls, cpus, outcomes = [], [], []
    jiffies0 = cpu_jiffies()
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        wall, cpu, outcome = run_pass(workload, data, work / f"pass{len(walls)}", shape)
        walls.append(wall)
        cpus.append(cpu)
        outcomes.append(outcome)
    jiffies1 = cpu_jiffies()
    steal_frac = None
    if jiffies0 and jiffies1 and jiffies1[1] > jiffies0[1]:
        steal_frac = (jiffies1[0] - jiffies0[0]) / (jiffies1[1] - jiffies0[1])

    layer_metrics, report = {}, {}
    if args.trace:
        from layers import kernel_table

        wall, outcome, summary, layer_metrics, counts = traced_pass(
            workload, data, work / "traced", shape, WORK / f"{tag}.spans.csv")
        outcomes.append(outcome)
        layer_metrics["trace.overhead_frac"] = (wall / statistics.median(walls) - 1.0, "ratio")
        layer_metrics.update(kernel_table())
        expected = workload.expected_calls(shape)
        report["count_mismatches"] = {
            name: {"expected": want, "traced": counts.get(name, 0)}
            for name, want in expected.items() if counts.get(name, 0) != want
        }
        ranked = sorted(summary.module_self.items(), key=lambda kv: -kv[1])
        report["self_s_by_module"] = dict(ranked)
        report["top_module_as_claimed"] = ranked[0][0] in workload.stresses

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errors = [e for o in outcomes for e in o.errors]
    digests = [o.digests for o in outcomes]
    if any(d != digests[0] for d in digests):
        errors.append(f"outputs differ between passes: {digests}")
    correct = not errors and failed == 0
    e2e = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup_rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": failed / attempted,
        "outputs_ok": int(correct),
    }

    print(f"workload {workload.name}, seed {args.seed}: {len(walls)} passes, "
          f"closed loop with 1 client, {sum(walls):.1f} s measured")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:>12.4f} {E2E_UNITS[name]}")
    print(f"  passes wall_s {[round(w, 3) for w in walls]}")
    print(f"  passes cpu_s  {[round(c, 3) for c in cpus]}")
    print(f"  setup rounds  {[round(t, 3) for t in setup_rounds]}")
    if steal_frac is not None:
        print(f"  CPU time stolen by the host during the passes: {100 * steal_frac:.1f}%")
    print(f"  digests {digests[0]}")
    for e in errors[:20]:
        print(f"  CHECK FAILED: {e}")
    if args.trace:
        for name, (value, unit) in layer_metrics.items():
            print(f"  {name:<44} {value:>14.4f} {unit}")
        print(f"  self time by module (s): "
              f"{ {k: round(v, 3) for k, v in report['self_s_by_module'].items()} }")
        print(f"  largest self time in {workload.stresses}: "
              f"{report['top_module_as_claimed']}")
        print(f"  call counts differing from the workload shape: "
              f"{report['count_mismatches'] or 'none'}")
    print("env " + json.dumps(env))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = layer_metrics
        unlisted = sorted(set(values) - {m["name"] for m in wanted})
        if unlisted:
            raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {unlisted}")
    else:
        values = {name: (e2e[name], E2E_UNITS[name]) for name in e2e}
    metrics = {}
    for m in wanted:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    record = {"workload": workload.name, "env": env, "passes_wall_s": walls,
              "passes_cpu_s": cpus, "setup_rounds_s": setup_rounds,
              "steal_frac": steal_frac, "end_to_end": e2e, "per_layer": dict(layer_metrics),
              "digests": digests, "errors": errors, **report}
    (WORK / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    shutil.rmtree(work)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
