"""Training, transfer, evaluation and benchmark orchestration.

A run is fully determined by its config: the instance comes from the config
seed, parameter init and action sampling use separate seeded streams, and the
warm start is itself seeded, so repeated runs write identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import solvers
from .env import (DISCOUNT, INVALID_PENALTY, VEHICLE_RULES, Trajectory, VrpInstance,
                  discounted_returns, distance_tables, encode_state, generate_instance,
                  json_array, reset, state_dim, table_step, write_atomic)
from .policy import (N_LAYERS, N_QUBITS, ActionDistribution, AdamState, PolicyParams,
                     ValueParams, _compile, _reinforce_gradients, adam_init, apply_update,
                     circuit_terms, compile_policy, forward_step, init_policy_params,
                     init_value_params, policy_circuit_for_size, sample_action)
from .sim import ZZHamiltonian, circuit_metrics
from .warmstart import (MAX_ITERS, build_cost_hamiltonian, build_subgraph, export_warm_start,
                        optimize_angles)

TRAINED_METHODS = ("hqrl-qaoa", "vanilla-qrl")
# Circuit-shape keys older config files carry; they load only at the fixed shape.
LEGACY_SHAPE_KEYS = {"n_qubits": N_QUBITS, "n_layers": N_LAYERS, "p": N_LAYERS}
DEFAULT_SEEDS = (7, 77, 88, 101, 2024)
FINETUNE_EPISODES = 40
# Accepted value types per field annotation; a bool is an int, so only bool fields take one.
_FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


@dataclass(frozen=True)
class RunConfig:
    method: str = "hqrl-qaoa"
    n_customers: int = 8
    n_vehicles: int = 2
    episodes: int = 250
    seed: int = 7
    warm_start: bool = True
    value_baseline: bool = True
    discount: float = DISCOUNT
    invalid_penalty: float = INVALID_PENALTY
    warmstart_max_iters: int = MAX_ITERS
    lr_quantum: float = 0.01
    lr_classical: float = 0.001
    vehicle_rule: str = "nearest"

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _FIELD_TYPES[f.type]) or (
                    isinstance(value, bool) and f.type != "bool"):
                raise ValueError(f"{f.name}={value!r} is not a {f.type}")
        if self.method not in TRAINED_METHODS:
            raise ValueError(f"method {self.method!r} is not one of {TRAINED_METHODS}")
        if self.method == "vanilla-qrl" and self.warm_start:
            raise ValueError("method 'vanilla-qrl' trains from random angles, so warm_start "
                             "must be false (CLI: --no-warm-start)")
        if not 1 <= self.n_vehicles <= self.n_customers:
            raise ValueError(f"n_vehicles={self.n_vehicles} is outside "
                             f"[1, n_customers={self.n_customers}]")
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be >= 0")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount={self.discount} is outside (0, 1]")
        for key in ("lr_quantum", "lr_classical"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{key}={getattr(self, key)} must be > 0")
        if self.warmstart_max_iters < 1:
            raise ValueError("warmstart_max_iters must be >= 1")
        if self.vehicle_rule not in VEHICLE_RULES:
            raise ValueError(f"vehicle_rule {self.vehicle_rule!r} is not one of {VEHICLE_RULES}")

    def to_dict(self) -> dict:
        return asdict(self)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ValueError(f"config is a {type(data).__name__}, not a JSON object")
    data = dict(data)
    for key, fixed in LEGACY_SHAPE_KEYS.items():
        if key in data and data.pop(key) != fixed:
            raise ValueError(f"config key {key!r} must be {fixed}: the policy circuit is "
                             f"fixed at {N_QUBITS} qubits and {N_LAYERS} layers")
    unknown = set(data) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**data)


@dataclass(frozen=True)
class EpisodeRecord:
    episode: int
    total_reward: float
    policy_loss: float
    value_loss: float
    route_cost: float


@dataclass
class TrainingLog:
    records: list[EpisodeRecord]
    peak_mem_bytes: int

    def rewards(self) -> np.ndarray:
        return np.array([r.total_reward for r in self.records])


@dataclass
class Checkpoint:
    config: RunConfig
    params: PolicyParams
    vparams: ValueParams
    opt: AdamState
    episode_count: int


@dataclass(frozen=True)
class EvalResult:
    routes: dict[int, list[int]]
    cost: float
    oracle: float
    normalized_cost: float
    total_reward: float


def _problem(config: RunConfig) -> tuple[VrpInstance, ZZHamiltonian]:
    """The config seed's instance and the policy Hamiltonian built on it."""
    instance = generate_instance(config.n_customers, config.n_vehicles, config.seed)
    return instance, build_cost_hamiltonian(build_subgraph(instance, N_QUBITS))


def policy_hamiltonian(config: RunConfig) -> ZZHamiltonian:
    """Cost Hamiltonian of the policy's cost layers and of the warm start that
    seeds their angles, rebuilt from the config seed."""
    return _problem(config)[1]


def rollout(instance: VrpInstance, params: PolicyParams, h_policy: ZZHamiltonian,
            rng: np.random.Generator, greedy: bool = False, rule: str = "nearest",
            discount: float = DISCOUNT, penalty: float = INVALID_PENALTY):
    """One masked episode; returns (trajectory, routes, total_reward, cost).  A masked
    episode never picks a served city, so the invalid-action penalty never applies."""
    return _rollout(instance, params, distance_tables(instance),
                    compile_policy(params, h_policy), rng, greedy, rule, discount)[:4]


def _rollout(instance, params, tables, v, rng, greedy, rule, discount):
    """rollout on the instance's distance_tables and V(theta) already compiled, the
    environment moved as env.step moves it; also returns every step's forward_step."""
    n, k = instance.n_customers, instance.n_vehicles
    obs = encode_state(instance, reset(instance))
    states = np.empty((n, obs.size))
    where = np.zeros(k, dtype=int)
    actions, rewards, forwards = [], [], []
    routes: dict[int, list[int]] = {j: [] for j in range(k)}
    total = 0.0
    for t in range(n):
        states[t] = obs
        forwards.append(forward_step(obs, params, v, obs[-n:] == 0.0))
        action = sample_action(ActionDistribution(forwards[-1][-1]), rng, greedy=greedy)
        vehicle, reward = table_step(tables, where, action, t, t == n - 1, rule)
        obs[2 * vehicle:2 * vehicle + 2] = instance.customers[action]
        obs[2 * (k + n) + action] = 1.0  # visited
        routes[vehicle].append(action)
        actions.append(action)
        rewards.append(reward)
        total += reward
    rewards = np.array(rewards)
    returns, normalized = discounted_returns(rewards, discount)
    traj = Trajectory(states, np.array(actions), rewards, returns, normalized)
    return traj, routes, total, -total, forwards


def _init_checkpoint(config: RunConfig, h_policy: ZZHamiltonian) -> Checkpoint:
    obs_dim = state_dim(config.n_customers, config.n_vehicles)
    rng = np.random.default_rng([config.seed, 0])
    params = init_policy_params(obs_dim, config.n_customers, rng)
    vparams = init_value_params(obs_dim, rng)

    if config.warm_start:
        angles = optimize_angles(h_policy, N_LAYERS, config.warmstart_max_iters, config.seed)
        params = export_warm_start(angles, params)
    return Checkpoint(config, params, vparams, adam_init(params, vparams), 0)


def _run_episodes(ck: Checkpoint, instance: VrpInstance,
                  h_policy: ZZHamiltonian) -> tuple[TrainingLog, Checkpoint]:
    """The config's episodes; each compiles V(theta) once and runs one forward pass per step."""
    config = ck.config
    rng = np.random.default_rng([config.seed, 1])
    params, vparams, opt = ck.params, ck.vparams, ck.opt

    tables, terms = distance_tables(instance), circuit_terms(h_policy)
    records: list[EpisodeRecord] = []
    for episode in range(config.episodes):
        compiled = _compile(params, terms)
        traj, _, total, cost, forwards = _rollout(instance, params, tables, compiled[1], rng,
                                                  False, config.vehicle_rule, config.discount)
        pg, vg, ploss, vloss = _reinforce_gradients(traj, forwards, params, vparams, compiled,
                                                    config.value_baseline)
        if not (np.isfinite(ploss) and np.isfinite(vloss)):
            raise RuntimeError(f"non-finite loss at episode {episode}: "
                               f"policy={ploss}, value={vloss}")
        params, vparams, opt = apply_update(params, vparams, pg, vg, opt,
                                            config.lr_quantum, config.lr_classical)
        records.append(EpisodeRecord(episode, total, ploss, vloss, cost))

    new_ck = Checkpoint(config, params, vparams, opt, ck.episode_count + config.episodes)
    return TrainingLog(records, peak_memory_estimate(new_ck)), new_ck


def train(config: RunConfig) -> tuple[TrainingLog, Checkpoint]:
    """REINFORCE on one seeded instance; episodes=0 yields an empty log."""
    instance, h_policy = _problem(config)
    return _run_episodes(_init_checkpoint(config, h_policy), instance, h_policy)


def transfer_params(ck: Checkpoint, new_config: RunConfig) -> Checkpoint:
    """Carry quantum angles (and overlapping encoder/value weights) to a new
    problem size; the head is rebuilt because the action count changes.

    When the problem shape is unchanged nothing needs rebuilding, so the
    checkpoint passes through whole and fine-tuning is continued training."""
    old, new = ck.config, new_config
    if (old.n_customers, old.n_vehicles) == (new.n_customers, new.n_vehicles):
        return Checkpoint(new_config, ck.params, ck.vparams, ck.opt, ck.episode_count)
    obs_dim = state_dim(new.n_customers, new.n_vehicles)
    rng = np.random.default_rng([new.seed, 2])
    fresh = init_policy_params(obs_dim, new.n_customers, rng)
    fresh_v = init_value_params(obs_dim, rng)

    encoder_w = _transfer_obs_matrix(ck.params.encoder_w, fresh.encoder_w, old, new)
    value_w1 = _transfer_obs_matrix(ck.vparams.w1, fresh_v.w1, old, new)
    params = replace(fresh,
                     encoder_w=encoder_w,
                     encoder_b=ck.params.encoder_b.copy(),
                     rotation_angles=ck.params.rotation_angles.copy(),
                     qaoa_angles=ck.params.qaoa_angles.copy())
    vparams = ValueParams(value_w1, ck.vparams.b1.copy(), ck.vparams.w2.copy(),
                          ck.vparams.b2.copy())
    return Checkpoint(new_config, params, vparams, adam_init(params, vparams),
                      ck.episode_count)


def _transfer_obs_matrix(w_old: np.ndarray, w_fresh: np.ndarray, old: RunConfig,
                         new: RunConfig) -> np.ndarray:
    """Block-aware pad/truncate over the [vehicles | customers | mask] layout.

    Overlapping columns keep their trained values; columns that exist only at
    the new size keep the fresh initialization, so inputs the agent has never
    seen start out weighted exactly like a newly built agent's."""
    w_new = w_fresh.copy()
    blocks_old = (2 * old.n_vehicles, 2 * old.n_customers, old.n_customers)
    blocks_new = (2 * new.n_vehicles, 2 * new.n_customers, new.n_customers)
    src = dst = 0
    for size_old, size_new in zip(blocks_old, blocks_new):
        keep = min(size_old, size_new)
        w_new[:, dst:dst + keep] = w_old[:, src:src + keep]
        src += size_old
        dst += size_new
    return w_new


def finetune(ck: Checkpoint, new_config: RunConfig) -> tuple[TrainingLog, Checkpoint]:
    """Transfer to a new size and keep training (default budget 40 episodes)."""
    return _run_episodes(transfer_params(ck, new_config), *_problem(new_config))


def evaluate(ck: Checkpoint, instance: VrpInstance) -> EvalResult:
    """Greedy rollout; cost normalized by the exact optimum when N <= 9,
    otherwise by nearest neighbor."""
    trained = (ck.config.n_customers, ck.config.n_vehicles)
    shape = (instance.n_customers, instance.n_vehicles)
    if trained != shape or ck.params.encoder_w.shape[1] != state_dim(*shape):
        raise ValueError(f"checkpoint was trained for (n_customers, n_vehicles) = {trained}, "
                         f"the instance has {shape}")
    h_policy = policy_hamiltonian(ck.config)
    rng = np.random.default_rng(0)  # unused in greedy mode
    _, routes, total, cost = rollout(instance, ck.params, h_policy, rng, greedy=True,
                                     rule=ck.config.vehicle_rule,
                                     discount=ck.config.discount,
                                     penalty=ck.config.invalid_penalty)
    oracle = solvers.oracle_cost(instance)
    return EvalResult(routes, cost, oracle, cost / oracle, total)


def peak_memory_estimate(ck: Checkpoint) -> int:
    """Formula-based estimate, not a measurement, of our own buffers at the peak of
    an update: parameters, Adam moments, the blocks, V, the sweep's A and B, and an
    episode's N product, final and data-shifted states.  The process uses far more."""
    param_bytes = sum(int(getattr(group, f.name).nbytes)
                      for group in (ck.params, ck.vparams) for f in fields(group))
    dim = 2**N_QUBITS
    map_bytes = 16 * (N_LAYERS * (2 * dim * dim + dim) + 3 * dim * dim)  # blocks, V, A, B
    state_bytes = ck.config.n_customers * dim * (8 + 16 + 8 * N_QUBITS)  # (T, 16) x2, (T, Q, 16)
    return 3 * param_bytes + map_bytes + state_bytes


@dataclass(frozen=True)
class ComparisonRow:
    method: str
    n_customers: int
    normalized_cost: float | str
    qubits: int | str
    depth: int | str
    peak_mem_bytes: int | str


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def comparison_to_csv(rows: list[ComparisonRow]) -> str:
    lines = ["method,n_customers,normalized_cost,qubits,depth,peak_mem_bytes"]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in
                              [r.method, r.n_customers, r.normalized_cost,
                               r.qubits, r.depth, r.peak_mem_bytes]))
    return "\n".join(lines) + "\n"


def metrics_to_csv(log: TrainingLog) -> str:
    lines = ["episode,total_reward,policy_loss,value_loss,route_cost"]
    for r in log.records:
        lines.append(f"{r.episode},{r.total_reward!r},{r.policy_loss!r},"
                     f"{r.value_loss!r},{r.route_cost!r}")
    return "\n".join(lines) + "\n"


def scalability_sweep(sizes: list[int], config: RunConfig) -> list[ComparisonRow]:
    """Train both policy variants per size and record cost plus resources.

    Rows tagged -analytic carry textbook resource formulas (grover-style
    search needs N*K qubits and exponential depth; flat QAOA on the full
    problem needs N qubits and depth O(p*N)); they are not measured here.
    """
    # every size's configs are built, and so checked, before any training
    runs = [[replace(config, method=method, n_customers=size, warm_start=method == "hqrl-qaoa")
             for method in TRAINED_METHODS] for size in sizes]
    rows: list[ComparisonRow] = []
    for size, cfgs in zip(sizes, runs):
        for cfg in cfgs:
            instance, h_policy = _problem(cfg)  # train(cfg), keeping its instance
            log, ck = _run_episodes(_init_checkpoint(cfg, h_policy), instance, h_policy)
            result = evaluate(ck, instance)
            metrics = circuit_metrics(policy_circuit_for_size(ck.params, h_policy)[0])
            rows.append(ComparisonRow(cfg.method, size, result.normalized_cost,
                                      metrics.qubit_count, metrics.depth,
                                      log.peak_mem_bytes))
        rows.append(ComparisonRow("gas-analytic", size, "n/a",
                                  size * config.n_vehicles, "exponential", "n/a"))
        rows.append(ComparisonRow("qaoa-analytic", size, "n/a",
                                  size, N_LAYERS * size, "n/a"))
    return rows


def ablate(base: RunConfig, sizes: list[int],
           finetune_episodes: int = FINETUNE_EPISODES) -> list[ComparisonRow]:
    """Normalized cost per size for the full method and three ablations.

    full / no-warm-start / no-value-baseline pretrain at the base size and
    fine-tune to each target size; no-fine-tune trains from scratch per size.
    """
    variants = {
        "full": base,
        "no-warm-start": replace(base, warm_start=False),
        "no-value-baseline": replace(base, value_baseline=False),
    }
    # every size's configs are built, and so checked, before any training
    targets = {name: [replace(cfg, n_customers=size, episodes=finetune_episodes)
                      for size in sizes] for name, cfg in variants.items()}
    scratch = [replace(base, n_customers=size) for size in sizes]
    rows: list[ComparisonRow] = []
    for name, cfg in variants.items():
        _, pretrained = train(cfg)
        for size, target in zip(sizes, targets[name]):
            _, ck = finetune(pretrained, target)
            instance = generate_instance(size, cfg.n_vehicles, cfg.seed)
            rows.append(ComparisonRow(name, size, evaluate(ck, instance).normalized_cost,
                                      "", "", ""))
    for size, cfg in zip(sizes, scratch):
        _, ck = train(cfg)
        instance = generate_instance(size, base.n_vehicles, base.seed)
        rows.append(ComparisonRow("no-fine-tune", size,
                                  evaluate(ck, instance).normalized_cost, "", "", ""))
    return rows


def checkpoint_to_json(ck: Checkpoint) -> dict:
    return {
        "config": ck.config.to_dict(),
        "encoder_weights": {"w": ck.params.encoder_w.tolist(),
                            "b": ck.params.encoder_b.tolist()},
        "rotation_angles": ck.params.rotation_angles.tolist(),
        "qaoa_angles": ck.params.qaoa_angles.tolist(),
        "head_weights": {"w": ck.params.head_w.tolist(), "b": ck.params.head_b.tolist()},
        "value_params": {"w1": ck.vparams.w1.tolist(), "b1": ck.vparams.b1.tolist(),
                         "w2": ck.vparams.w2.tolist(), "b2": float(ck.vparams.b2)},
        "optimizer_state": {
            "step": ck.opt.step,
            "m": {k: v.tolist() for k, v in ck.opt.m.items()},
            "v": {k: v.tolist() for k, v in ck.opt.v.items()},
        },
        "episode_count": ck.episode_count,
    }


def checkpoint_from_json(data: dict) -> Checkpoint:
    """Inverse of checkpoint_to_json; a malformed file raises ValueError naming the field."""
    config = config_from_dict(_field(data, "config"))
    params = PolicyParams(*(_array(data, *path) for path in (
        ("encoder_weights", "w"), ("encoder_weights", "b"), ("rotation_angles",),
        ("qaoa_angles",), ("head_weights", "w"), ("head_weights", "b"))))
    vparams = ValueParams(*(_array(data, "value_params", k) for k in ("w1", "b1", "w2", "b2")))
    moments = []
    for part in ("m", "v"):
        group = _field(data, "optimizer_state", part)
        if not isinstance(group, dict):
            raise ValueError(f"checkpoint field optimizer_state.{part} is not a JSON object")
        moments.append({k: _array(data, "optimizer_state", part, k) for k in group})
    opt = AdamState(_counter(_field(data, "optimizer_state", "step"), "optimizer_state.step"),
                    *moments)
    ck = Checkpoint(config, params, vparams, opt,
                    _counter(_field(data, "episode_count"), "episode_count"))
    _check_arrays(ck)
    return ck


def _field(data, *path: str):
    """The entry at path through nested JSON objects."""
    for depth, key in enumerate(path):
        if not isinstance(data, dict):
            where = f"field {'.'.join(path[:depth])}" if depth else "file"
            raise ValueError(f"checkpoint {where} is not a JSON object")
        if key not in data:
            raise ValueError(f"checkpoint field {'.'.join(path[:depth + 1])} is missing")
        data = data[key]
    return data


def _array(data, *path: str) -> np.ndarray:
    value = _field(data, *path)
    try:
        return json_array(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint field {'.'.join(path)} is not a numeric array: "
                         f"{exc}") from None


def _counter(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"checkpoint field {field} must be a non-negative integer, "
                         f"got {value!r}")
    return value


def _check_arrays(ck: Checkpoint) -> None:
    """Parameters and Adam moments must be finite and shaped like a fresh init
    for the config's (n_customers, n_vehicles), and second moments >= 0; names
    follow adam_init's keys."""
    obs_dim = state_dim(ck.config.n_customers, ck.config.n_vehicles)
    rng = np.random.default_rng(0)
    fresh = adam_init(init_policy_params(obs_dim, ck.config.n_customers, rng),
                      init_value_params(obs_dim, rng)).m
    params = {f"{prefix}{f.name}": getattr(group, f.name)
              for prefix, group in (("", ck.params), ("value_", ck.vparams)) for f in fields(group)}
    for where, arrays in (("", params), ("optimizer_state.m.", ck.opt.m),
                          ("optimizer_state.v.", ck.opt.v)):
        if set(arrays) != set(fresh):
            raise ValueError(f"checkpoint {where.rstrip('.') or 'parameter'} keys "
                             f"{sorted(arrays)} are not {sorted(fresh)}")
        for key, array in arrays.items():
            if array.shape != fresh[key].shape or not np.all(np.isfinite(array)):
                raise ValueError(f"checkpoint field {where}{key} must be finite with shape "
                                 f"{fresh[key].shape}, got shape {array.shape}")
    for key, array in ck.opt.v.items():
        if np.any(array < 0):
            raise ValueError(f"checkpoint field optimizer_state.v.{key} must be >= 0, "
                             f"got {float(array.min())!r}")


def save_checkpoint(ck: Checkpoint, path: str | Path) -> None:
    write_atomic(path, json.dumps(checkpoint_to_json(ck), indent=2) + "\n")


def load_checkpoint(path: str | Path) -> Checkpoint:
    return checkpoint_from_json(json.loads(Path(path).read_text()))
