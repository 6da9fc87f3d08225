"""Training pipeline tests: configuration validation, deterministic runs,
checkpoint serialization, parameter transfer between problem sizes, and the
structure of the comparison, sweep, and ablation tables."""

import json
import sys
from collections import Counter
from dataclasses import fields, replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqrl import policy, sim, training
from hqrl.env import (VEHICLE_RULES, encode_state, generate_instance, reset, route_cost,
                      state_dim, step, valid_action_mask)
from hqrl.policy import (ENCODER_SCALE, ENCODER_SEED, N_LAYERS, N_QUBITS, PolicyParams,
                         action_codes, apply_update, init_policy_params, init_value_params,
                         reinforce_gradients)
from hqrl.sim import GateOp, ZZHamiltonian, ry_product_state
from hqrl.solvers import brute_force_optimal
from hqrl.training import (FINETUNE_EPISODES, TRAINED_METHODS, Checkpoint, EpisodeRecord,
                           RunConfig, _init_checkpoint, ablate, checkpoint_from_json,
                           checkpoint_to_json, config_from_dict, evaluate, finetune,
                           metrics_to_csv, peak_memory_estimate, policy_hamiltonian, rollout,
                           scalability_sweep, train, transfer_params)
from hqrl.warmstart import run_warmstart

TINY = RunConfig(method="hqrl-qaoa", n_customers=4, n_vehicles=2, episodes=6, seed=3,
                 warmstart_max_iters=25)


def _dump(ck) -> str:
    return json.dumps(checkpoint_to_json(ck), sort_keys=True)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(method="alpha-zero")
    for untrained in ("random", "nearest-neighbor", "brute-force"):
        with pytest.raises(ValueError, match="method"):
            RunConfig(method=untrained)
    with pytest.raises(ValueError):
        RunConfig(episodes=-1)
    with pytest.raises(ValueError):
        config_from_dict({"method": "hqrl-qaoa", "learning_rate": 0.5})
    for discount in (0.0, -0.5, 1.01, float("nan")):
        with pytest.raises(ValueError, match="discount"):
            RunConfig(discount=discount)
    assert RunConfig(discount=1.0).discount == 1.0
    for key in ("lr_quantum", "lr_classical"):
        for lr in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match=key):
                RunConfig(**{key: lr})
    with pytest.raises(ValueError, match="warmstart_max_iters"):
        RunConfig(warmstart_max_iters=0)
    with pytest.raises(ValueError, match="seed=-1 must be >= 0"):
        RunConfig(seed=-1)
    assert RunConfig(seed=0).seed == 0
    for n, k in ((4, 0), (4, 5), (0, 1)):
        with pytest.raises(ValueError, match="n_vehicles"):
            RunConfig(n_customers=n, n_vehicles=k)
    assert RunConfig(n_customers=3, n_vehicles=3).n_vehicles == 3
    # vanilla-qrl is the random-angle method, so it cannot also ask for a warm start
    with pytest.raises(ValueError, match="warm_start"):
        RunConfig(method="vanilla-qrl")
    assert not RunConfig(method="vanilla-qrl", warm_start=False).warm_start
    # types are checked first: a bool is no number, and only an int passes for a float
    for key, value in (("warm_start", "no"), ("episodes", 2.5), ("seed", True),
                       ("n_customers", "8"), ("discount", True), ("method", 1),
                       ("lr_quantum", "0.1"), ("value_baseline", 1)):
        with pytest.raises(ValueError, match=key):
            RunConfig(**{key: value})
    assert RunConfig(discount=1).discount == 1

    defaults = RunConfig()
    assert len(defaults.to_dict()) == 13
    assert defaults.invalid_penalty == 10.0
    assert defaults.discount == 0.99
    assert defaults.episodes == 250
    assert defaults.warmstart_max_iters == 150
    assert defaults.lr_quantum == 0.01
    assert defaults.lr_classical == 0.001

    assert config_from_dict(defaults.to_dict()) == defaults


def test_config_rejects_unknown_vehicle_rule():
    with pytest.raises(ValueError, match="vehicle_rule"):
        RunConfig(vehicle_rule="closest")
    assert RunConfig(vehicle_rule="round-robin").vehicle_rule == "round-robin"


def _legacy_checkpoint(ck, **shape) -> dict:
    """The checkpoint as older releases wrote it: its config also held the
    circuit shape, n_qubits/n_layers/p, after invalid_penalty."""
    data = checkpoint_to_json(ck)
    config = {}
    for key, value in data["config"].items():
        config[key] = value
        if key == "invalid_penalty":
            config.update({"n_qubits": 4, "n_layers": 2, "p": 2, **shape})
    data["config"] = config
    return json.loads(json.dumps(data))


def test_legacy_checkpoint_loads_at_the_fixed_circuit_shape():
    _, ck = train(TINY)
    legacy = checkpoint_from_json(_legacy_checkpoint(ck))
    assert legacy.config == ck.config
    assert _dump(legacy) == _dump(ck)

    instance = generate_instance(4, 2, 11)
    assert evaluate(legacy, instance).normalized_cost == evaluate(ck, instance).normalized_cost
    target = RunConfig(method="hqrl-qaoa", n_customers=5, n_vehicles=2, episodes=2, seed=3,
                       warmstart_max_iters=25)
    log_legacy, tuned_legacy = finetune(legacy, target)
    log, tuned = finetune(ck, target)
    assert metrics_to_csv(log_legacy) == metrics_to_csv(log)
    assert _dump(tuned_legacy) == _dump(tuned)

    for key, value in (("n_qubits", 5), ("n_layers", 3), ("p", 3)):
        with pytest.raises(ValueError, match=f"'{key}'"):
            checkpoint_from_json(_legacy_checkpoint(ck, **{key: value}))
        with pytest.raises(ValueError, match=f"'{key}'"):
            config_from_dict({key: value})


def test_policy_hamiltonian_is_complete_graph():
    h = policy_hamiltonian(RunConfig())
    assert isinstance(h, ZZHamiltonian)
    assert h.n_qubits == 4
    assert sorted((i, j) for i, j, _ in h.terms) == [(0, 1), (0, 2), (0, 3),
                                                     (1, 2), (1, 3), (2, 3)]
    # below four customers the Hamiltonian is as wide as the subgraph
    small = policy_hamiltonian(RunConfig(n_customers=3, n_vehicles=1))
    assert small.n_qubits == 3 and len(small.terms) == 3


def test_train_is_deterministic():
    log_a, ck_a = train(TINY)
    log_b, ck_b = train(TINY)
    assert metrics_to_csv(log_a) == metrics_to_csv(log_b)
    assert _dump(ck_a) == _dump(ck_b)
    assert ck_a.episode_count == 6
    assert len(log_a.records) == 6


def test_train_zero_episodes_gives_empty_log():
    log, ck = train(RunConfig(n_customers=4, episodes=0, seed=1, warmstart_max_iters=10))
    assert log.records == []
    assert ck.episode_count == 0


def test_rollout_reward_cost_duality():
    config = RunConfig(n_customers=6, n_vehicles=2, episodes=0, seed=5, warmstart_max_iters=10)
    _, ck = train(config)
    h = policy_hamiltonian(config)
    for seed in range(8):
        instance = generate_instance(6, 2, seed)
        traj, routes, total_reward, cost = rollout(instance, ck.params, h,
                                                   np.random.default_rng(seed))
        assert cost == pytest.approx(route_cost(instance, routes), abs=1e-9)
        assert -total_reward == pytest.approx(cost, abs=1e-9)
        assert len(traj.actions) == 6


ROLLOUT_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SHAPES = st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, min(n, 3))))


def _random_params(n_customers, n_vehicles, seed):
    """Every policy parameter drawn at random, angles over a full turn, so the
    action distributions range from flat to nearly one-hot."""
    rng = np.random.default_rng(seed)
    obs_dim = state_dim(n_customers, n_vehicles)
    return PolicyParams(encoder_w=rng.normal(0.0, 1.0, (N_QUBITS, obs_dim)),
                        encoder_b=rng.normal(0.0, 1.0, N_QUBITS),
                        rotation_angles=rng.uniform(-np.pi, np.pi, (N_LAYERS, N_QUBITS, 2)),
                        qaoa_angles=rng.uniform(-np.pi, np.pi, (N_LAYERS, 2)),
                        head_w=rng.normal(0.0, 3.0, (n_customers, N_QUBITS)),
                        head_b=rng.normal(0.0, 1.0, n_customers))


@ROLLOUT_PROPERTY
@given(shape=SHAPES, instance_seed=st.integers(0, 2**31 - 1), rule=st.sampled_from(VEHICLE_RULES),
       param_seed=st.integers(0, 2**31 - 1), greedy=st.booleans())
def test_rollout_replays_through_the_environment(shape, instance_seed, rule, param_seed, greedy):
    """Every action was valid under the mask, the routes are the vehicles the
    environment chose and partition the customers, and the rewards telescope
    to the route cost."""
    n, k = shape
    instance = generate_instance(n, k, instance_seed)
    config = RunConfig(n_customers=n, n_vehicles=k, seed=instance_seed)
    traj, routes, total, cost = rollout(instance, _random_params(n, k, param_seed),
                                        policy_hamiltonian(config),
                                        np.random.default_rng(param_seed), greedy=greedy,
                                        rule=rule)
    state, replayed = reset(instance), {v: [] for v in range(k)}
    for obs, action, reward in zip(traj.states, traj.actions.tolist(), traj.rewards.tolist()):
        np.testing.assert_array_equal(obs, encode_state(instance, state))
        assert valid_action_mask(state)[action]
        outcome = step(instance, state, action, rule)
        replayed[outcome.vehicle].append(action)
        assert outcome.reward == reward
        state = outcome.state
    assert state.done and len(traj.actions) == n
    assert routes == replayed
    assert sorted(c for cities in routes.values() for c in cities) == list(range(n))
    assert abs(route_cost(instance, routes) - cost) <= 1e-12
    assert -np.add.accumulate(traj.rewards)[-1] == cost == -total  # summed left to right


def test_rollout_rejects_params_of_another_observation_width():
    """The public rollout keeps encode_observation's shape check."""
    instance = generate_instance(4, 2, 3)
    params = _random_params(5, 2, 0)
    h_policy = policy_hamiltonian(RunConfig(n_customers=4, n_vehicles=2, seed=3))
    with pytest.raises(ValueError, match="does not match encoder dim"):
        rollout(instance, params, h_policy, np.random.default_rng(0))


def _public_loop(config):
    """train's episodes spelled out with the public rollout, reinforce_gradients
    and apply_update, each compiling its own circuit maps."""
    instance = generate_instance(config.n_customers, config.n_vehicles, config.seed)
    h_policy = policy_hamiltonian(config)
    ck = _init_checkpoint(config, h_policy)
    params, vparams, opt = ck.params, ck.vparams, ck.opt
    rng = np.random.default_rng([config.seed, 1])
    records = []
    for episode in range(config.episodes):
        traj, _, total, cost = rollout(instance, params, h_policy, rng,
                                       rule=config.vehicle_rule, discount=config.discount,
                                       penalty=config.invalid_penalty)
        pg, vg, ploss, vloss = reinforce_gradients(traj, params, vparams, h_policy,
                                                   config.value_baseline)
        params, vparams, opt = apply_update(params, vparams, pg, vg, opt,
                                            config.lr_quantum, config.lr_classical)
        records.append(EpisodeRecord(episode, total, ploss, vloss, cost))
    return records, Checkpoint(config, params, vparams, opt, config.episodes)


@pytest.mark.parametrize("method, rule", zip(TRAINED_METHODS, VEHICLE_RULES))
def test_train_equals_the_loop_over_public_functions(method, rule):
    config = RunConfig(method=method, n_customers=5, n_vehicles=2, episodes=20, seed=19,
                       warm_start=method == "hqrl-qaoa", warmstart_max_iters=25,
                       vehicle_rule=rule)
    log, ck = train(config)
    records, expected = _public_loop(config)
    assert log.records == records
    assert _dump(ck) == _dump(expected)


def _counter(monkeypatch):
    """A Counter and count(module, name), which makes module.name count its calls there."""
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    # every module that binds generate_instance
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "hqrl"]:
        if getattr(module, "generate_instance", None) is generate_instance:
            count(module, "generate_instance")
    return calls, count


def test_train_builds_the_instance_once_and_the_circuit_maps_once_per_episode(monkeypatch):
    calls, count = _counter(monkeypatch)
    # where the policy compiles its circuit, and builds the circuit terms
    for name in ("_compile", "forward_step"):
        count(training, name)
        count(policy, name)
    count(policy, "z_generators")
    builds = Counter()  # rotation_layer's gather index, built per width through a fresh cache
    build = sim._rotation_index.__wrapped__
    monkeypatch.setattr(sim, "_rotation_index",
                        lru_cache(lambda n: builds.update([n]) or build(n)))
    _, ck = train(replace(TINY, n_customers=3, episodes=7))
    # one forward pass per step: the gradient pass reads the rollout's
    assert calls == {"generate_instance": 1, "_compile": 7, "z_generators": 1,
                     "forward_step": 7 * 3}
    calls.clear()
    finetune(ck, replace(TINY, n_customers=5, episodes=3))
    assert calls == {"generate_instance": 1, "_compile": 3, "z_generators": 1,
                     "forward_step": 3 * 5}
    # the warm start's three-qubit subgraph and the policy register, once each
    assert builds == {3: 1, N_QUBITS: 1}


def test_scalability_sweep_generates_each_runs_instance_twice(monkeypatch):
    # once for training, whose instance and Hamiltonian the run's evaluation and
    # circuit metrics reuse, and once inside evaluate, which rebuilds the Hamiltonian
    calls, _ = _counter(monkeypatch)
    sizes = [2, 3]
    scalability_sweep(sizes, replace(TINY, episodes=2))
    assert calls == {"generate_instance": 2 * len(TRAINED_METHODS) * len(sizes)}


def _recorded_rollout():
    """A rollout of TINY's instance under random parameters, with its forward passes."""
    instance, h = training._problem(TINY)
    params = _random_params(TINY.n_customers, TINY.n_vehicles, 4)
    compiled = policy._compile(params, policy.circuit_terms(h))
    out = training._rollout(instance, params, training.distance_tables(instance), compiled[1],
                            np.random.default_rng(5), False, TINY.vehicle_rule, TINY.discount)
    return out, params, h, compiled


def test_rollout_records_the_probabilities_policy_forward_gives():
    (traj, _, _, _, forwards), params, h, _ = _recorded_rollout()
    assert len(forwards) == len(traj.states) == TINY.n_customers
    for state, record in zip(traj.states, forwards):
        mask = state[-TINY.n_customers:] == 0.0
        np.testing.assert_array_equal(record[-1],
                                      policy.policy_forward(state, params, h, mask).probabilities)


@pytest.mark.parametrize("value_baseline", [True, False])
def test_public_gradients_equal_the_gradients_from_the_rollouts_records(value_baseline):
    (traj, _, _, _, forwards), params, h, compiled = _recorded_rollout()
    vparams = init_value_params(state_dim(TINY.n_customers, TINY.n_vehicles),
                                np.random.default_rng(6))
    public = reinforce_gradients(traj, params, vparams, h, value_baseline)
    recorded = policy._reinforce_gradients(traj, forwards, params, vparams, compiled,
                                           value_baseline)
    # Adam's moments keep this order, and checkpoint.json writes them in it
    assert list(recorded[0]) == [f.name for f in fields(PolicyParams)]
    for got, expected in zip(public[:2], recorded[:2]):
        assert got.keys() == expected.keys()
        for name in got:
            np.testing.assert_array_equal(got[name], expected[name], err_msg=name)
    assert public[2:] == recorded[2:]


def test_training_and_the_warm_start_never_apply_a_gate_on_its_own(monkeypatch):
    # They run on the block kernel; the gate-by-gate kernel sim._apply serves
    # apply_gate alone, which the counter's last check calls to show it counts.
    calls = Counter()
    original = sim._apply

    def counted(*args, **kwargs):
        calls["_apply"] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(sim, "_apply", counted)

    assert TINY.warm_start and TINY.method == "hqrl-qaoa"
    _, ck = train(TINY)
    _, tuned = finetune(ck, replace(TINY, n_customers=5, episodes=3))
    evaluate(tuned, generate_instance(5, 2, 11))
    run_warmstart(generate_instance(8, 2, 7), N_QUBITS, N_LAYERS)
    assert calls["_apply"] == 0
    sim.apply_gate(sim.init_plus_state(1), GateOp("H", (0,)))
    assert calls["_apply"] == 1


def test_transfer_rebuilds_encoder_blockwise():
    _, ck = train(RunConfig(n_customers=8, n_vehicles=2, episodes=0, seed=7,
                            warmstart_max_iters=10))
    new_config = RunConfig(n_customers=12, n_vehicles=2, episodes=0, seed=7,
                           warmstart_max_iters=10)
    moved = transfer_params(ck, new_config)

    old_w, new_w = ck.params.encoder_w, moved.params.encoder_w
    assert new_w.shape == (4, state_dim(12, 2))
    # Columns the agent has never seen are padded from a fresh initialization
    # rather than zeros, so they match what a newly built 12-city agent gets.
    fresh_w = np.random.default_rng(ENCODER_SEED).normal(0.0, ENCODER_SCALE,
                                                         (4, state_dim(12, 2)))
    np.testing.assert_array_equal(new_w[:, :4], old_w[:, :4])           # vehicle block
    np.testing.assert_array_equal(new_w[:, 4:20], old_w[:, 4:20])       # shared coords
    np.testing.assert_array_equal(new_w[:, 20:28], fresh_w[:, 20:28])   # new coords
    np.testing.assert_array_equal(new_w[:, 28:36], old_w[:, 20:28])     # shared flags
    np.testing.assert_array_equal(new_w[:, 36:40], fresh_w[:, 36:40])   # new flags

    np.testing.assert_array_equal(moved.params.rotation_angles, ck.params.rotation_angles)
    np.testing.assert_array_equal(moved.params.qaoa_angles, ck.params.qaoa_angles)
    np.testing.assert_array_equal(moved.params.encoder_b, ck.params.encoder_b)
    np.testing.assert_array_equal(moved.params.head_w, 0.5 * action_codes(12, 4))

    # The value first layer follows the same rule, with its padding drawn from
    # the dedicated transfer stream after the policy draws.
    rng = np.random.default_rng([7, 2])
    init_policy_params(state_dim(12, 2), 12, rng)
    fresh_v1 = init_value_params(state_dim(12, 2), rng).w1
    old_v1, new_v1 = ck.vparams.w1, moved.vparams.w1
    assert new_v1.shape == (32, state_dim(12, 2))
    np.testing.assert_array_equal(new_v1[:, 4:20], old_v1[:, 4:20])
    np.testing.assert_array_equal(new_v1[:, 20:28], fresh_v1[:, 20:28])
    np.testing.assert_array_equal(new_v1[:, 36:40], fresh_v1[:, 36:40])
    assert moved.opt.step == 0


def test_transfer_same_size_passes_checkpoint_through():
    _, ck = train(TINY)
    same = RunConfig(method="hqrl-qaoa", n_customers=4, n_vehicles=2, episodes=0, seed=99,
                     warmstart_max_iters=25)
    moved = transfer_params(ck, same)
    np.testing.assert_array_equal(moved.params.encoder_w, ck.params.encoder_w)
    np.testing.assert_array_equal(moved.params.head_w, ck.params.head_w)
    np.testing.assert_array_equal(moved.vparams.w1, ck.vparams.w1)
    assert moved.opt.step == ck.opt.step
    assert moved.episode_count == ck.episode_count
    assert moved.config == same


def test_finetune_same_size_is_continued_training():
    _, ck = train(TINY)
    log, moved = finetune(ck, RunConfig(method="hqrl-qaoa", n_customers=4, n_vehicles=2,
                                        episodes=0, seed=3, warmstart_max_iters=25))
    assert log.records == []
    np.testing.assert_array_equal(moved.params.rotation_angles, ck.params.rotation_angles)
    np.testing.assert_array_equal(moved.params.head_w, ck.params.head_w)
    assert moved.episode_count == ck.episode_count

    log2, moved2 = finetune(ck, RunConfig(method="hqrl-qaoa", n_customers=4, n_vehicles=2,
                                          episodes=4, seed=3, warmstart_max_iters=25))
    assert len(log2.records) == 4
    assert moved2.episode_count == ck.episode_count + 4


def test_finetune_changes_size():
    _, ck = train(TINY)
    log, moved = finetune(ck, RunConfig(method="hqrl-qaoa", n_customers=6, n_vehicles=2,
                                        episodes=3, seed=3, warmstart_max_iters=25))
    assert len(log.records) == 3
    assert moved.config.n_customers == 6
    assert moved.params.encoder_w.shape == (4, state_dim(6, 2))
    assert moved.episode_count == 6 + 3


def test_checkpoint_json_round_trip():
    _, ck = train(TINY)
    data = checkpoint_to_json(ck)
    assert set(data) == {"config", "encoder_weights", "rotation_angles", "qaoa_angles",
                         "head_weights", "value_params", "optimizer_state", "episode_count"}
    assert set(data["encoder_weights"]) == {"w", "b"}
    assert set(data["head_weights"]) == {"w", "b"}
    assert set(data["value_params"]) == {"w1", "b1", "w2", "b2"}
    assert set(data["optimizer_state"]) == {"step", "m", "v"}

    restored = checkpoint_from_json(json.loads(json.dumps(data)))
    np.testing.assert_array_equal(restored.params.encoder_w, ck.params.encoder_w)
    np.testing.assert_array_equal(restored.params.rotation_angles, ck.params.rotation_angles)
    np.testing.assert_array_equal(restored.params.qaoa_angles, ck.params.qaoa_angles)
    np.testing.assert_array_equal(restored.vparams.w2, ck.vparams.w2)
    assert restored.opt.step == ck.opt.step
    for key in restored.opt.m:
        np.testing.assert_array_equal(restored.opt.m[key], ck.opt.m[key])
    assert restored.episode_count == ck.episode_count
    assert restored.config == ck.config
    assert _dump(restored) == _dump(ck)


DELETED = object()


def _corrupted(data: dict, path: tuple, value) -> dict:
    """A copy of checkpoint JSON with the entry at `path` (keys and indices) replaced,
    or removed when value is DELETED."""
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is DELETED:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


def test_checkpoint_from_json_rejects_bad_arrays():
    _, ck = train(TINY)
    data = checkpoint_to_json(ck)
    moments = data["optimizer_state"]["m"]
    cases = [
        (("qaoa_angles", 0, 1), float("nan"), "qaoa_angles"),
        (("rotation_angles",), data["rotation_angles"][:1], "rotation_angles"),
        (("head_weights", "b"), data["head_weights"]["b"][:-1], "head_b"),
        (("value_params", "w1"), data["value_params"]["w1"][:-1], "value_w1"),
        (("optimizer_state", "v", "encoder_w", 0, 0), float("inf"),
         "optimizer_state.v.encoder_w"),
        (("optimizer_state", "m", "head_b"), moments["head_b"] + [0.0],
         "optimizer_state.m.head_b"),
        (("optimizer_state", "m"), {k: v for k, v in moments.items() if k != "qaoa_angles"},
         "optimizer_state.m"),
        (("optimizer_state", "v", "qaoa_angles", 0, 0), -1e-3, "optimizer_state.v.qaoa_angles"),
        (("optimizer_state", "step"), -1, "optimizer_state.step"),
        (("optimizer_state", "step"), 2.7, "optimizer_state.step"),
        (("optimizer_state", "step"), True, "optimizer_state.step"),
        (("episode_count",), 2.7, "episode_count"),
        (("episode_count",), -3, "episode_count"),
        (("episode_count",), "3", "episode_count"),
        (("config",), DELETED, "config is missing"),
        (("value_params",), DELETED, "value_params is missing"),
        (("value_params", "w2"), DELETED, "value_params.w2 is missing"),
        (("episode_count",), DELETED, "episode_count is missing"),
        (("optimizer_state", "step"), DELETED, "optimizer_state.step is missing"),
        (("optimizer_state", "v"), [1.0], "optimizer_state.v is not a JSON object"),
        (("head_weights",), [1.0], "head_weights is not a JSON object"),
        (("config",), [], "config is a list"),
        (("encoder_weights", "w", 1), [0.5], "encoder_weights.w is not a numeric array"),
        (("optimizer_state", "m", "rotation_angles", 0, 1, 0), [0.1, 0.2],
         "optimizer_state.m.rotation_angles is not a numeric array"),
        (("qaoa_angles", 0, 0), "abc", "qaoa_angles is not a numeric array"),
        # np.array(..., dtype=float) parses these, and a bool among floats stays float64
        (("qaoa_angles", 0, 0), "0.1", "qaoa_angles is not a numeric array"),
        (("qaoa_angles", 0, 0), True, "qaoa_angles is not a numeric array"),
        (("value_params", "b2"), "0.25", "value_params.b2 is not a numeric array"),
        (("optimizer_state", "v", "head_b", 1), False,
         "optimizer_state.v.head_b is not a numeric array"),
    ]
    for path, value, field in cases:
        with pytest.raises(ValueError, match=field):
            checkpoint_from_json(_corrupted(data, path, value))
    with pytest.raises(ValueError, match="checkpoint file is not a JSON object"):
        checkpoint_from_json([data])
    assert _dump(checkpoint_from_json(data)) == _dump(ck)


def test_evaluate_contract():
    config = RunConfig(n_customers=1, n_vehicles=1, episodes=0, seed=2, warmstart_max_iters=10)
    _, ck = train(config)
    result = evaluate(ck, generate_instance(1, 1, 0))
    assert result.normalized_cost == pytest.approx(1.0)  # only one tour exists
    assert result.routes == {0: [0]}

    config8 = RunConfig(n_customers=8, n_vehicles=2, episodes=0, seed=2, warmstart_max_iters=10)
    _, ck8 = train(config8)
    instance8 = generate_instance(8, 2, 1)
    result8 = evaluate(ck8, instance8)
    served = sorted(c for cities in result8.routes.values() for c in cities)
    assert served == list(range(8))
    assert result8.oracle == pytest.approx(brute_force_optimal(instance8)[1])
    assert result8.normalized_cost >= 1.0 - 1e-12
    assert result8.normalized_cost == pytest.approx(result8.cost / result8.oracle)
    assert -result8.total_reward == pytest.approx(result8.cost, abs=1e-9)

    with pytest.raises(ValueError):
        evaluate(ck8, generate_instance(5, 2, 1))


def test_evaluate_rejects_other_shape_with_same_state_dim(monkeypatch):
    # (N=7, K=1) and (N=5, K=4) both have state_dim 23.
    assert state_dim(7, 1) == state_dim(5, 4)
    _, ck = train(RunConfig(n_customers=7, n_vehicles=1, episodes=0, seed=2,
                            warmstart_max_iters=10))

    def no_rollout(*args, **kwargs):
        raise AssertionError("evaluate rolled out before checking the shape")

    monkeypatch.setattr("hqrl.training.rollout", no_rollout)
    with pytest.raises(ValueError, match="n_customers, n_vehicles"):
        evaluate(ck, generate_instance(5, 4, 1))


def test_metrics_csv_format():
    log, _ = train(TINY)
    lines = metrics_to_csv(log).strip().split("\n")
    assert lines[0] == "episode,total_reward,policy_loss,value_loss,route_cost"
    assert len(lines) == 1 + 6
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[4]) > 0.0
    assert float(first[1]) == pytest.approx(-float(first[4]), abs=1e-9)


def test_scalability_sweep_structure():
    config = RunConfig(n_customers=4, n_vehicles=2, episodes=4, seed=1,
                       warmstart_max_iters=10)
    rows = scalability_sweep([4, 5], config)
    assert [r.method for r in rows] == ["hqrl-qaoa", "vanilla-qrl", "gas-analytic",
                                        "qaoa-analytic"] * 2
    assert [r.n_customers for r in rows] == [4, 4, 4, 4, 5, 5, 5, 5]

    gas = {r.n_customers: r for r in rows if r.method == "gas-analytic"}
    assert gas[4].qubits == 8 and gas[5].qubits == 10
    assert gas[4].depth == "exponential"
    assert gas[4].normalized_cost == "n/a"

    qaoa = {r.n_customers: r for r in rows if r.method == "qaoa-analytic"}
    assert qaoa[4].qubits == 4 and qaoa[5].qubits == 5
    assert qaoa[4].depth == 2 * 4 and qaoa[5].depth == 2 * 5

    for r in rows:
        if r.method in ("hqrl-qaoa", "vanilla-qrl"):
            assert r.qubits == 4
            assert r.depth <= 18
            assert r.peak_mem_bytes > 0
            assert r.normalized_cost >= 1.0 - 1e-9


def test_ablation_table_structure():
    base = RunConfig(n_customers=4, n_vehicles=2, episodes=4, seed=1, warmstart_max_iters=10)
    rows = ablate(base, [4, 5], finetune_episodes=2)
    assert [r.method for r in rows] == ["full", "full", "no-warm-start", "no-warm-start",
                                        "no-value-baseline", "no-value-baseline",
                                        "no-fine-tune", "no-fine-tune"]
    assert [r.n_customers for r in rows] == [4, 5] * 4
    for row in rows:
        assert row.normalized_cost >= 1.0 - 1e-9


def test_peak_memory_estimate():
    _, ck = train(RunConfig(n_customers=8, episodes=0, seed=1, warmstart_max_iters=10))
    estimate = peak_memory_estimate(ck)
    assert estimate > 0
    assert estimate == peak_memory_estimate(ck)
    assert estimate < 10_000_000  # four qubits stay tiny
    # the formula counts the arrays one update builds: the blocks and V, the
    # sweep's A and B (each shaped like V), and the episode's state arrays
    for n, k in ((1, 1), (2, 1), (3, 2), (4, 2), (9, 3)):
        config = RunConfig(n_customers=n, n_vehicles=k)
        instance, h = training._problem(config)
        ck = Checkpoint(config, init_policy_params(state_dim(n, k), n, np.random.default_rng(0)),
                        init_value_params(state_dim(n, k), np.random.default_rng(1)), None, 0)
        traj, _, _, _ = rollout(instance, ck.params, h, np.random.default_rng(2))
        blocks, v, _ = policy._compile(ck.params, policy.circuit_terms(h))
        data = np.pi * np.tanh(traj.states @ ck.params.encoder_w.T + ck.params.encoder_b)
        states = ry_product_state(data)
        shifted = ry_product_state(data[:, None, :] + np.pi * np.eye(N_QUBITS))
        param_bytes = sum(a.nbytes for a in (*vars(ck.params).values(), *vars(ck.vparams).values()))
        assert peak_memory_estimate(ck) == (3 * param_bytes
                                            + sum(b.nbytes for b in blocks)
                                            + 3 * v.nbytes + states.nbytes
                                            + (states @ v).nbytes + shifted.nbytes)


def test_finetune_episode_preset():
    assert FINETUNE_EPISODES == 40
