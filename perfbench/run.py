"""hqrl benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload train-n8 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one process each

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
rounds untraced, then as many fresh rounds with every public boundary listed
in ``BOUNDARIES`` wrapped by ``spans.SpanRecorder``, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also writes
``perfbench/results/<workload>-seed<seed>-trace<t>.json`` (and, when traced,
a ``-spans.json`` beside it).  The program is imported from ``src/`` next to
this directory and from nowhere else.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
MODULES = ("training", "policy", "sim", "env", "warmstart", "solvers")
WORKLOAD_NAMES = ("train-n8", "evaluate-exact", "warmstart-batch")

BOUNDARIES = {
    "training": ["train", "rollout", "evaluate", "policy_hamiltonian"],
    "policy": ["policy_forward", "reinforce_gradients", "apply_update", "build_policy_circuit"],
    "sim": ["run_circuit", "z_readout_gradients", "apply_cost_layer", "apply_mixer_layer",
            "expectation_zz"],
    "env": ["step", "encode_state", "valid_action_mask", "discounted_returns",
            "generate_instance"],
    "warmstart": ["optimize_angles", "qaoa_expectation", "build_subgraph",
                  "build_cost_hamiltonian"],
    "solvers": ["oracle_cost", "brute_force_optimal", "nearest_neighbor"],
}
SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import " + ", ".join(f"hqrl.{m}" for m in MODULES) + "; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB",
                    "cost_ratio": "ratio"}
RATIOS = {  # name: (numerator, denominator)
    "policy.forward_passes_per_step": ("sim.run_circuit.calls", "env.step.calls"),
    "warmstart.evals_per_start": ("warmstart.qaoa_expectation.calls",
                                  "warmstart.optimize_angles.calls"),
    "warmstart.accepted_per_eval": ("warmstart.accepted_steps",
                                    "warmstart.qaoa_expectation.calls"),
    "solvers.oracle_calls_per_instance": ("solvers.oracle_cost.calls",
                                          "training.evaluate.calls"),
}


def boundary_names() -> list[str]:
    return [f"{m}.{f}" for m, fns in BOUNDARIES.items() for f in fns]


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in boundary_names():
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.median_us": "us"})
    units["warmstart.accepted_steps"] = "count"
    units.update(dict.fromkeys(RATIOS, "ratio"))
    units.update({"trace.wall_s": "s", "trace.untraced_s": "s", "trace.overhead_s": "s"})
    return units


def import_program() -> tuple[types.SimpleNamespace, float]:
    """Import hqrl from src/ and return its modules and the import time."""
    if not (SRC / "hqrl" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hqrl'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    modules = {m: importlib.import_module(f"hqrl.{m}") for m in MODULES}
    seconds = perf_counter() - start
    origin = Path(modules["training"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"error: hqrl was imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**modules), seconds


def import_seconds_in_fresh_interpreter() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "git_sha": sha}


def measure(workload, seconds: float, first_round: int, n_rounds: int | None = None,
            recorder=None) -> list:
    """Whole rounds until ``seconds`` of operation time and at least the
    workload's ``MIN_ROUNDS`` rounds, or exactly ``n_rounds``."""
    rounds, elapsed = [], 0.0
    while ((len(rounds) < n_rounds) if n_rounds is not None
           else (elapsed < seconds or len(rounds) < workload.MIN_ROUNDS)):
        result = workload.run_round(first_round + len(rounds), recorder)
        rounds.append(result)
        elapsed += result.seconds
    return rounds


def traced_metrics(workload, untraced: list):
    """Per-layer values, wrong outputs, rounds and recorder of a traced pass
    over as many fresh rounds as ``untraced`` holds."""
    from spans import SpanRecorder

    recorder = SpanRecorder()
    recorder.install(BOUNDARIES, on_result={
        "warmstart.optimize_angles":
            lambda rec, angles: rec.count("warmstart.accepted_steps", len(angles.cost_history)),
    })
    try:
        traced = measure(workload, 0.0, len(untraced), len(untraced), recorder)
    finally:
        recorder.uninstall()

    values: dict[str, float] = {}
    for name, stats in recorder.summary(boundary_names()).items():
        for key, value in stats.items():
            values[f"{name}.{key}"] = value
    values["warmstart.accepted_steps"] = recorder.counters.get("warmstart.accepted_steps", 0)
    for name, (num, den) in RATIOS.items():
        values[name] = values[num] / values[den] if values[den] else 0.0

    wall = sum(r.seconds for r in traced)
    covered = recorder.top_level_time()
    values["trace.wall_s"] = wall
    values["trace.untraced_s"] = wall - covered
    values["trace.overhead_s"] = wall - sum(r.seconds for r in untraced)

    wrong = [msg for r in traced for msg in r.wrong]
    total_self = sum(recorder.self_times())
    if not abs(total_self + (wall - covered) - wall) <= 1e-9 * max(wall, 1.0):
        wrong.append(f"self times {total_self!r} plus untraced time do not add up to "
                     f"the traced wall time {wall!r}")
    return values, wrong, traced, recorder


def run_workload(args) -> int:
    hq, first_import_s = import_program()
    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](hq, args.seed)
    import_samples = [first_import_s] + [import_seconds_in_fresh_interpreter()
                                         for _ in range(SETUP_REPEATS - 1)]
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup()
        setup_samples.append(perf_counter() - start)
    setup_s = statistics.median(import_samples) + statistics.median(setup_samples)

    untraced = measure(workload, args.seconds, 0)
    rounds = list(untraced)
    wrong = [msg for r in untraced for msg in r.wrong]
    if args.trace:
        values, traced_wrong, traced, recorder = traced_metrics(workload, untraced)
        rounds += traced
        wrong += traced_wrong
        units = per_layer_units()
    else:
        quality = {key: statistics.fmean(r.quality.get(key, float("nan"))
                                         for r in untraced[:workload.MIN_ROUNDS])
                   for key in ("cost_ratio",) + workload.quality_metric[:1]}
        values = {
            "ops_per_s": (sum(r.attempted for r in untraced)
                          / sum(r.seconds for r in untraced)),
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cost_ratio": quality["cost_ratio"],
        }
        units = END_TO_END_UNITS
        rate_name, rate_unit = workload.rate_metric
        quality_name, quality_unit = workload.quality_metric
        named = [(rate_name, values["ops_per_s"], rate_unit),
                 (quality_name, quality[quality_name], quality_unit)]

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = not wrong and all(np.isfinite(v) for v in values.values())
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "environment": environment(),
        "operations": {args.workload: {"attempted": attempted, "failed": failed}},
        "correct": correct, "wrong": wrong, "metrics": metrics,
        "rounds": [{"attempted": r.attempted, "failed": r.failed, "seconds": r.seconds,
                    "quality": r.quality} for r in rounds],
        "setup": {"import_s": import_samples, "setup_s": setup_samples},
    }
    if args.trace:
        record["absent"] = recorder.absent
        recorder.write(RESULTS / f"{stem}-spans.json")
    else:
        record["named"] = {n: {"value": v, "unit": u} for n, v, u in named}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for msg in wrong:
        print(f"WRONG: {msg}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {attempted} operations, {failed} failed, "
          f"{'correct' if correct else 'INCORRECT'}")
    if not args.trace:
        for name, value, unit in named:
            print(f"  {name:<44} {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    operations, status = {}, 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                "--workload", name, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
                               stdout=subprocess.PIPE, text=True, timeout=1800)
        sys.stdout.write(child.stdout)
        status = status or child.returncode
        lines = child.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        operations[name] = {"attempted": result["attempted"], "failed": result["failed"]}
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"all-seed{args.seed}-trace{int(args.trace)}.json").write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
         "environment": environment(), "operations": operations, **combined}, indent=2) + "\n")
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
