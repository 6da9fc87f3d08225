"""Command-line front end.

Every run settles its seed the same way: an explicit --seed flag wins, then a
seed in the config file, then the HQRL_SEED environment variable, then the
built-in default.  Usage errors exit 2 (argparse); anything that fails once
work has started (missing files, shape mismatches) exits 3 with a one-line
JSON error on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import env, svgplot, training, warmstart
from .policy import N_LAYERS, N_QUBITS
from .training import RunConfig, config_from_dict


def _resolve_config(args: argparse.Namespace, base: RunConfig | None = None) -> RunConfig:
    """Settings from base, then the config file, then the flags, each overriding
    the one before; HQRL_SEED applies only when none of them sets a seed."""
    data = base.to_dict() if base else {}
    if getattr(args, "config", None):
        data.update(json.loads(Path(args.config).read_text()))
    overrides = {
        "seed": args.seed,
        "episodes": getattr(args, "episodes", None),
        "n_customers": getattr(args, "n", None),
        "n_vehicles": getattr(args, "k", None),
        "method": getattr(args, "method", None),
        "warm_start": getattr(args, "warm_start", None),
        "value_baseline": getattr(args, "value_baseline", None),
    }
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    env_seed = os.environ.get("HQRL_SEED")
    if "seed" not in data and env_seed:
        try:
            data["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"HQRL_SEED={env_seed!r} is not an integer") from None
    return config_from_dict(data)


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_gen_instance(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    instance = env.generate_instance(cfg.n_customers, cfg.n_vehicles, cfg.seed)
    path = _outdir(args) / "instance.json"
    env.save_instance(instance, path)
    print(path)
    return 0


def _cmd_warmstart(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    instance = env.load_instance(args.instance)
    angles, subgraph = warmstart.run_warmstart(instance, N_QUBITS, N_LAYERS,
                                               cfg.warmstart_max_iters, cfg.seed)
    path = _outdir(args) / "warmstart.json"
    warmstart.save_warmstart(angles, subgraph, cfg.seed, path)
    print(path)
    return 0


def _write_run_artifacts(out: Path, log: training.TrainingLog, ck: training.Checkpoint) -> None:
    env.write_atomic(out / "metrics.csv", training.metrics_to_csv(log))
    training.save_checkpoint(ck, out / "checkpoint.json")
    instance = env.generate_instance(ck.config.n_customers, ck.config.n_vehicles,
                                     ck.config.seed)
    env.save_instance(instance, out / "instance.json")


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    log, ck = training.train(cfg)
    out = _outdir(args)
    _write_run_artifacts(out, log, ck)
    print(out / "checkpoint.json")
    return 0


def _cmd_finetune(args: argparse.Namespace) -> int:
    ck = training.load_checkpoint(args.checkpoint)
    new_cfg = _resolve_config(args, replace(ck.config, episodes=training.FINETUNE_EPISODES))
    log, tuned = training.finetune(ck, new_cfg)
    out = _outdir(args)
    _write_run_artifacts(out, log, tuned)
    print(out / "checkpoint.json")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    ck = training.load_checkpoint(args.checkpoint)
    instance = env.load_instance(args.instance)
    result = training.evaluate(ck, instance)
    out = _outdir(args)
    payload = {
        "routes": {str(v): cities for v, cities in sorted(result.routes.items())},
        "total_cost": result.cost,
        "oracle_cost": result.oracle,
        "normalized_cost": result.normalized_cost,
        "total_reward": result.total_reward,
    }
    env.write_atomic(out / "routes.json", json.dumps(payload, indent=2) + "\n")
    svgplot.emit_route_svg(instance, result.routes, out / "routes.svg")
    print(out / "routes.json")
    return 0


def _parse_sizes(text: str) -> list[int]:
    sizes = [int(tok) for tok in text.split(",") if tok.strip()]
    if not sizes:
        raise ValueError("no sizes given")
    return sizes


def _cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    rows = training.ablate(cfg, _parse_sizes(args.sizes))
    path = _outdir(args) / "ablation.csv"
    env.write_atomic(path, training.comparison_to_csv(rows))
    print(path)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    rows = training.scalability_sweep(_parse_sizes(args.sizes), cfg)
    path = _outdir(args) / "comparison.csv"
    env.write_atomic(path, training.comparison_to_csv(rows))
    print(path)
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    series = []
    for metrics_path in args.metrics:
        with open(metrics_path, newline="") as fh:
            rewards = [float(row["total_reward"]) for row in csv.DictReader(fh)]
        if not rewards:
            raise ValueError(f"{metrics_path} has no episodes to plot")
        series.append((Path(metrics_path).stem, np.array(rewards)))
    path = _outdir(args) / "curves.svg"
    svgplot.emit_curve_svg(series, path)
    print(path)
    return 0


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--episodes", type=int)
    sub.add_argument("--n", type=int, help="number of customers")
    sub.add_argument("--k", type=int, help="number of vehicles")
    sub.add_argument("--method", choices=training.TRAINED_METHODS)
    sub.add_argument("--warm-start", action=argparse.BooleanOptionalAction, default=None)
    sub.add_argument("--value-baseline", action=argparse.BooleanOptionalAction, default=None)
    sub.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hqrl",
                                     description="quantum-policy routing workbench")
    subs = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("gen-instance", _cmd_gen_instance, "write a seeded instance file"),
        ("warmstart", _cmd_warmstart, "pre-optimize QAOA angles for an instance"),
        ("train", _cmd_train, "train a policy and write metrics plus checkpoint"),
        ("finetune", _cmd_finetune, "transfer a checkpoint to a new problem size"),
        ("evaluate", _cmd_evaluate, "greedy rollout of a checkpoint on an instance"),
        ("ablate", _cmd_ablate, "compare the full method against ablations"),
        ("sweep", _cmd_sweep, "size sweep with resource accounting"),
        ("plot", _cmd_plot, "render reward curves from metrics files"),
    ]
    for name, fn, help_text in specs:
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(func=fn)
        if name == "finetune":
            sub.add_argument("--checkpoint", required=True)
            _add_config_flags(sub)
        elif name == "evaluate":
            sub.add_argument("--checkpoint", required=True)
            sub.add_argument("--instance", required=True)
            sub.add_argument("--out", default=".")
        elif name == "plot":
            sub.add_argument("--metrics", nargs="+", required=True)
            sub.add_argument("--out", default=".")
        elif name == "warmstart":
            sub.add_argument("--instance", required=True)
            _add_config_flags(sub)
        else:
            _add_config_flags(sub)
        if name in ("ablate", "sweep"):
            sub.add_argument("--sizes", required=True, help="comma-separated customer counts")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # work started; report and signal failure
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
