"""Policy tests: distribution contracts, hybrid gradients against end-to-end
finite differences, optimizer behavior, and circuit-resource constancy.

The gradient oracle perturbs every parameter of every group by +/-h and
re-evaluates the raw losses, treating the value prediction as a constant in
the advantage exactly as the production gradient does.
"""

from dataclasses import replace

import numpy as np
import pytest

from hqrl.env import Trajectory, encode_state, generate_instance, reset, state_dim, step, valid_action_mask
from hqrl.policy import (ENCODER_SEED, ActionDistribution, action_codes,
                         adam_init, apply_update, encode_observation, init_policy_params,
                         init_value_params, masked_softmax, policy_circuit_for_size,
                         policy_forward, reinforce_gradients, sample_action, value_forward)
from hqrl.sim import ZZHamiltonian, circuit_metrics
from hqrl.training import RunConfig, policy_hamiltonian

H_TEST = ZZHamiltonian(4, [(0, 1, 1.0), (0, 2, 0.5), (1, 3, 0.75), (2, 3, 0.25)])


def _fresh_params(obs_dim=19, n_actions=5, seed=0):
    return init_policy_params(obs_dim, n_actions, np.random.default_rng(seed))


def _random_trajectory(seed: int, n_customers=5, n_vehicles=2, length=3):
    """Play `length` random valid steps and package them as a trajectory with
    synthetic normalized returns, enough structure for gradient checks."""
    rng = np.random.default_rng(seed)
    instance = generate_instance(n_customers, n_vehicles, seed)
    state = reset(instance)
    states, actions, rewards = [], [], []
    for _ in range(length):
        obs = encode_state(instance, state)
        action = int(rng.choice(np.flatnonzero(valid_action_mask(state))))
        outcome = step(instance, state, action)
        states.append(obs)
        actions.append(action)
        rewards.append(outcome.reward)
        state = outcome.state
    returns = np.array(rewards)[::-1].cumsum()[::-1]
    normalized = (returns - returns.mean()) / (returns.std() + 1e-8)
    return Trajectory(np.array(states), np.array(actions), np.array(rewards),
                      returns, normalized)


def test_action_codes_bits():
    codes = action_codes(8, 4)
    assert codes.shape == (8, 4)
    assert set(np.unique(codes)) == {-1.0, 1.0}
    np.testing.assert_array_equal(codes[0], [-1, -1, -1, -1])
    np.testing.assert_array_equal(codes[5], [1, -1, 1, -1])  # 5 = 0b0101
    wrapped = action_codes(20, 4)
    np.testing.assert_array_equal(wrapped[16], wrapped[0])


def test_init_is_deterministic_with_fixed_scaffolding():
    a = _fresh_params(seed=1)
    b = _fresh_params(seed=1)
    np.testing.assert_array_equal(a.rotation_angles, b.rotation_angles)

    c = _fresh_params(seed=2)
    np.testing.assert_array_equal(a.encoder_w, c.encoder_w)  # shared fixed projection
    np.testing.assert_array_equal(a.head_w, c.head_w)
    assert not np.array_equal(a.rotation_angles, c.rotation_angles)
    assert not np.array_equal(a.qaoa_angles, c.qaoa_angles)

    np.testing.assert_array_equal(a.encoder_b, np.zeros(4))
    np.testing.assert_array_equal(a.head_b, np.zeros(5))
    np.testing.assert_array_equal(a.head_w, 0.5 * action_codes(5, 4))
    expected_encoder = np.random.default_rng(ENCODER_SEED).normal(0.0, 0.3, (4, 19))
    np.testing.assert_array_equal(a.encoder_w, expected_encoder)

    assert a.rotation_angles.shape == (2, 4, 2) and a.qaoa_angles.shape == (2, 2)
    assert a.n_actions == 5


def test_encode_observation_contract():
    params = _fresh_params()
    zeroed = replace(params, encoder_w=np.zeros_like(params.encoder_w))
    np.testing.assert_array_equal(encode_observation(np.ones(19), zeroed), np.zeros(4))

    rng = np.random.default_rng(4)
    for _ in range(20):
        angles = encode_observation(rng.normal(size=19, scale=5.0), params)
        assert np.all(np.abs(angles) <= np.pi)  # tanh saturates to +/-1 in float64

    obs = rng.normal(size=19)
    np.testing.assert_array_equal(encode_observation(obs, params),
                                  encode_observation(obs, params))
    with pytest.raises(ValueError):
        encode_observation(np.ones(7), params)


def test_policy_forward_distribution_contract():
    params = _fresh_params()
    rng = np.random.default_rng(11)
    for _ in range(60):
        obs = rng.normal(size=19)
        mask = rng.random(5) < 0.6
        if not mask.any():
            mask[int(rng.integers(5))] = True
        dist = policy_forward(obs, params, H_TEST, mask)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_array_equal(dist.probabilities[~mask], 0.0)
        assert np.all(dist.probabilities >= 0.0)

    lone = np.array([False, False, True, False, False])
    dist = policy_forward(rng.normal(size=19), params, H_TEST, lone)
    assert dist.probabilities[2] == pytest.approx(1.0)

    flat_head = replace(params, head_w=np.zeros_like(params.head_w))
    dist = policy_forward(rng.normal(size=19), flat_head, H_TEST,
                          np.array([True, True, False, True, False]))
    np.testing.assert_allclose(dist.probabilities[[0, 1, 3]], 1.0 / 3.0, atol=1e-12)

    with pytest.raises(ValueError):
        policy_forward(rng.normal(size=19), params, H_TEST, np.zeros(5, dtype=bool))


def test_masked_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        logits = rng.normal(size=6, scale=3.0)
        mask = rng.random(6) < 0.7
        if not mask.any():
            mask[0] = True
        base = masked_softmax(logits, mask)
        shifted_logits = logits.copy()
        shifted_logits[mask] += 17.3
        shifted = masked_softmax(shifted_logits, mask)
        np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_sample_action_statistics():
    params = _fresh_params()
    rng = np.random.default_rng(2)
    obs = rng.normal(size=19)
    mask = np.array([True, True, True, False, True])
    dist = policy_forward(obs, params, H_TEST, mask)

    draw_rng = np.random.default_rng(99)
    n = 100_000
    counts = np.bincount([sample_action(dist, draw_rng) for _ in range(n)], minlength=5)
    assert counts[3] == 0
    freqs = counts / n
    for a in range(5):
        p = dist.probabilities[a]
        sigma = np.sqrt(max(p * (1.0 - p), 1e-12) / n)
        assert abs(freqs[a] - p) <= 3.0 * sigma + 1e-12

    lone = np.array([False, True, False, False, False])
    lone_dist = policy_forward(obs, params, H_TEST, lone)
    assert all(sample_action(lone_dist, draw_rng) == 1 for _ in range(20))

    tied = replace(dist, probabilities=np.array([0.3, 0.3, 0.2, 0.0, 0.2]))
    assert sample_action(tied, draw_rng, greedy=True) == 0  # lowest index wins the tie


def test_sample_action_draws_exactly_like_rng_choice():
    """The inlined draw picks the index rng.choice(p.size, p=p) picks and
    leaves the stream in the same state, over random masked distributions
    from flat to nearly one-hot."""
    gen = np.random.default_rng(2024)
    ours, numpy_choice = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(20_000):
        size = int(gen.integers(1, 26))
        mask = gen.random(size) < gen.random()
        mask[gen.integers(size)] = True
        logits = gen.normal(0.0, gen.choice([0.01, 1.0, 10.0, 100.0]), size)
        dist = ActionDistribution(masked_softmax(logits, mask))
        p = dist.probabilities / dist.probabilities.sum()
        for _ in range(3):
            assert sample_action(dist, ours) == numpy_choice.choice(p.size, p=p)
    assert ours.bit_generator.state == numpy_choice.bit_generator.state


def test_value_forward_contract():
    vparams = init_value_params(19, np.random.default_rng(3))
    zeroed = replace(vparams, w1=np.zeros_like(vparams.w1), w2=np.zeros_like(vparams.w2),
                     b2=np.asarray(0.7))
    assert value_forward(np.ones(19), zeroed) == pytest.approx(0.7)

    obs = np.random.default_rng(4).normal(size=19)
    assert value_forward(obs, vparams) == value_forward(obs, vparams)
    with pytest.raises(ValueError):
        value_forward(np.ones(5), vparams)


def _policy_loss(traj, params, vparams, h, value_baseline=True):
    """Raw REINFORCE loss with the value prediction frozen as a constant."""
    total = 0.0
    n_actions = params.n_actions
    for t in range(len(traj.actions)):
        s = traj.states[t]
        mask = s[-n_actions:] == 0.0
        dist = policy_forward(s, params, h, mask)
        adv = traj.normalized_returns[t]
        if value_baseline:
            adv = adv - value_forward(s, vparams)
        total += -np.log(dist.probabilities[traj.actions[t]]) * adv
    return total


def _value_loss(traj, vparams):
    errs = [value_forward(traj.states[t], vparams) - traj.normalized_returns[t]
            for t in range(len(traj.actions))]
    return float(np.mean(np.square(errs)))


def _perturbed(params, group, index, delta):
    arr = getattr(params, group).copy()
    arr[index] += delta
    return replace(params, **{group: arr})


def test_gradients_match_finite_differences():
    h_fd = 1e-5
    for seed in range(3):
        traj = _random_trajectory(seed)
        params = _fresh_params(seed=seed)
        vparams = init_value_params(19, np.random.default_rng(seed + 50))
        pg, vg, ploss, vloss = reinforce_gradients(traj, params, vparams, H_TEST)

        assert ploss == pytest.approx(_policy_loss(traj, params, vparams, H_TEST), rel=1e-12)
        assert vloss == pytest.approx(_value_loss(traj, vparams), rel=1e-12)

        for group in ("encoder_w", "encoder_b", "rotation_angles", "qaoa_angles",
                      "head_w", "head_b"):
            grad = pg[group]
            for index in np.ndindex(grad.shape):
                up = _policy_loss(traj, _perturbed(params, group, index, h_fd), vparams, H_TEST)
                down = _policy_loss(traj, _perturbed(params, group, index, -h_fd), vparams, H_TEST)
                fd = (up - down) / (2.0 * h_fd)
                np.testing.assert_allclose(grad[index], fd, rtol=1e-5, atol=1e-8,
                                           err_msg=f"{group}{index}")

        for field in ("w1", "b1", "w2", "b2"):
            grad = np.atleast_1d(vg[field])
            arr = np.atleast_1d(getattr(vparams, field)).copy()
            for index in np.ndindex(arr.shape):
                def bumped(delta):
                    bump = arr.copy()
                    bump[index] += delta
                    shaped = bump if getattr(vparams, field).shape else bump.reshape(())
                    return replace(vparams, **{field: shaped})
                fd = (_value_loss(traj, bumped(h_fd)) - _value_loss(traj, bumped(-h_fd))) / (2.0 * h_fd)
                np.testing.assert_allclose(grad[index], fd, rtol=1e-5, atol=1e-8,
                                           err_msg=f"value {field}{index}")


def test_gradients_zero_when_advantage_zero():
    traj = _random_trajectory(0)
    flat = Trajectory(traj.states, traj.actions, traj.rewards, traj.returns,
                      np.zeros_like(traj.normalized_returns))
    params = _fresh_params()
    vparams = init_value_params(19, np.random.default_rng(1))
    pg, _, ploss, _ = reinforce_gradients(flat, params, vparams, H_TEST, value_baseline=False)
    assert ploss == 0.0
    for grad in pg.values():
        np.testing.assert_array_equal(grad, np.zeros_like(grad))


def test_value_loss_zero_when_prediction_exact():
    traj = _random_trajectory(2)
    constant = Trajectory(traj.states, traj.actions, traj.rewards, traj.returns,
                          np.full_like(traj.normalized_returns, 0.4))
    vparams = init_value_params(19, np.random.default_rng(0))
    exact = replace(vparams, w1=np.zeros_like(vparams.w1), w2=np.zeros_like(vparams.w2),
                    b2=np.asarray(0.4))
    _, vg, _, vloss = reinforce_gradients(constant, _fresh_params(), exact, H_TEST)
    assert vloss == pytest.approx(0.0, abs=1e-24)
    np.testing.assert_allclose(vg["b2"], 0.0, atol=1e-12)


def test_adam_update_contracts():
    params = _fresh_params()
    vparams = init_value_params(19, np.random.default_rng(0))
    opt = adam_init(params, vparams)

    zero_pg = {k: np.zeros_like(v) for k, v in {
        "encoder_w": params.encoder_w, "encoder_b": params.encoder_b,
        "rotation_angles": params.rotation_angles, "qaoa_angles": params.qaoa_angles,
        "head_w": params.head_w, "head_b": params.head_b}.items()}
    zero_vg = {"w1": np.zeros_like(vparams.w1), "b1": np.zeros_like(vparams.b1),
               "w2": np.zeros_like(vparams.w2), "b2": np.zeros_like(vparams.b2)}
    same_params, same_vparams, stepped = apply_update(params, vparams, zero_pg, zero_vg, opt)
    np.testing.assert_array_equal(same_params.qaoa_angles, params.qaoa_angles)
    np.testing.assert_array_equal(same_vparams.w1, vparams.w1)
    assert stepped.step == 1

    ones_pg = {k: np.ones_like(v) for k, v in zero_pg.items()}
    a1, v1, _ = apply_update(params, vparams, ones_pg, zero_vg, adam_init(params, vparams))
    a2, v2, _ = apply_update(params, vparams, ones_pg, zero_vg, adam_init(params, vparams))
    np.testing.assert_array_equal(a1.rotation_angles, a2.rotation_angles)

    # First Adam step moves each parameter by its group's learning rate.
    np.testing.assert_allclose(params.rotation_angles - a1.rotation_angles, 0.01, rtol=1e-6)
    np.testing.assert_allclose(params.qaoa_angles - a1.qaoa_angles, 0.01, rtol=1e-6)
    np.testing.assert_allclose(params.head_w - a1.head_w, 0.001, rtol=1e-6)
    np.testing.assert_allclose(params.encoder_w - a1.encoder_w, 0.001, rtol=1e-6)


def test_bandit_improves_target_action_probability():
    """Single-state bandit: always reinforce action 0 with positive advantage;
    its probability must climb and its log-loss must fall over 50 updates."""
    params = _fresh_params(obs_dim=19, n_actions=5, seed=9)
    vparams = init_value_params(19, np.random.default_rng(9))
    opt = adam_init(params, vparams)
    obs = np.concatenate([np.random.default_rng(1).normal(size=14), np.zeros(5)])
    mask = np.ones(5, dtype=bool)

    losses = []
    for _ in range(50):
        traj = Trajectory(np.array([obs]), np.array([0]), np.array([1.0]),
                          np.array([1.0]), np.array([1.0]))
        pg, vg, ploss, _ = reinforce_gradients(traj, params, vparams, H_TEST,
                                               value_baseline=False)
        losses.append(ploss)
        params, vparams, opt = apply_update(params, vparams, pg, vg, opt)

    final = policy_forward(obs, params, H_TEST, mask)
    first = policy_forward(obs, _fresh_params(obs_dim=19, n_actions=5, seed=9), H_TEST, mask)
    assert final.probabilities[0] > first.probabilities[0]
    assert losses[-1] < losses[0]


def test_circuit_resources_constant_across_problem_sizes():
    metrics = []
    for n in (5, 8, 12, 25):
        config = RunConfig(n_customers=n, n_vehicles=2, episodes=0, seed=7)
        params = init_policy_params(state_dim(n, 2), n, np.random.default_rng(0))
        circuit, _ = policy_circuit_for_size(params, policy_hamiltonian(config))
        metrics.append(circuit_metrics(circuit))
    assert all(m.qubit_count == 4 for m in metrics)
    assert len({m.depth for m in metrics}) == 1
    assert metrics[0].depth <= 18
    assert len({m.gate_count for m in metrics}) == 1
