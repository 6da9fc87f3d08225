"""Warm-start pipeline tests: subgraph weights, ansatz expectation against a
hand-derived closed form, optimizer contracts, grid-scan optimality, export.

The single-edge closed form used throughout: for one ZZ term of weight w and
one cost+mixer round starting from |++>, writing out the four amplitudes gives
<H_C>(gamma, beta) = w * sin(2*gamma*w) * sin(4*beta).
"""

import json

import numpy as np
import pytest

from hqrl.env import VrpInstance, generate_instance
from hqrl.policy import init_policy_params
from hqrl.sim import ZZHamiltonian
from hqrl.warmstart import (build_cost_hamiltonian, build_subgraph, export_warm_start,
                            optimize_angles, qaoa_expectation, run_warmstart, save_warmstart,
                            warmstart_to_json)


def _closed_form(w: float, gamma: float, beta: float) -> float:
    return w * np.sin(2.0 * gamma * w) * np.sin(4.0 * beta)


def _crafted(depot, customers) -> VrpInstance:
    customers = np.asarray(customers, dtype=float)
    return VrpInstance(len(customers), 1, np.asarray(depot, dtype=float), customers, 0)


def test_subgraph_takes_all_customers_when_few():
    sub = build_subgraph(generate_instance(3, 1, 5), n_qubits=4)
    assert sub.selected_customers == [0, 1, 2]
    assert sub.pairwise_weights.shape == (3, 3)


def test_subgraph_weights_normalized_and_symmetric():
    for seed in range(10):
        sub = build_subgraph(generate_instance(9, 2, seed), n_qubits=4)
        w = sub.pairwise_weights
        assert w.max() == 1.0
        np.testing.assert_array_equal(w, w.T)
        np.testing.assert_array_equal(np.diag(w), np.zeros(4))


def test_subgraph_picks_nearest_to_depot():
    instance = _crafted([0.0, 0.0], [[0.9, 0.0], [0.1, 0.0], [0.5, 0.0], [0.2, 0.0], [0.8, 0.0]])
    sub = build_subgraph(instance, n_qubits=3)
    assert sub.selected_customers == [1, 2, 3]  # distances 0.1, 0.5, 0.2


def test_subgraph_collinear_equal_spacing():
    instance = _crafted([0.0, 0.5], [[0.1, 0.5], [0.2, 0.5], [0.3, 0.5], [0.4, 0.5]])
    sub = build_subgraph(instance, n_qubits=4)
    w = sub.pairwise_weights
    assert w[0, 3] == pytest.approx(1.0)
    for a, b in [(0, 1), (1, 2), (2, 3)]:
        assert w[a, b] == pytest.approx(1.0 / 3.0)


def test_subgraph_validation():
    with pytest.raises(ValueError):
        build_subgraph(generate_instance(3, 1, 5), n_qubits=0)


def test_cost_hamiltonian_structure():
    sub = build_subgraph(generate_instance(8, 2, 7), n_qubits=4)
    h = build_cost_hamiltonian(sub)
    assert h.n_qubits == 4 and len(h.terms) == 6

    pair_sub = build_subgraph(generate_instance(2, 1, 3), n_qubits=2)
    pair_h = build_cost_hamiltonian(pair_sub)
    assert pair_h.n_qubits == 2  # one qubit per subgraph customer
    assert len(pair_h.terms) == 1 and pair_h.terms[0][2] == pytest.approx(1.0)

    flat = sorted(sub.pairwise_weights[i, j] for i in range(4) for j in range(i + 1, 4))
    assert sorted(w for _, _, w in h.terms) == pytest.approx(flat)


def test_qaoa_expectation_zero_angles_and_bounds():
    sub = build_subgraph(generate_instance(8, 2, 7), n_qubits=4)
    h = build_cost_hamiltonian(sub)
    assert qaoa_expectation(h, np.zeros(2), np.zeros(2)) == pytest.approx(0.0, abs=1e-12)

    total_weight = sum(w for _, _, w in h.terms)
    rng = np.random.default_rng(3)
    for _ in range(25):
        val = qaoa_expectation(h, rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, np.pi, 2))
        assert -total_weight - 1e-12 <= val <= total_weight + 1e-12

    with pytest.raises(ValueError):
        qaoa_expectation(h, np.zeros(2), np.zeros(3))


def test_qaoa_expectation_matches_single_edge_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(50):
        w = float(rng.uniform(0.05, 1.0))
        gamma, beta = rng.uniform(-3.0, 3.0, 2)
        h = ZZHamiltonian(2, [(0, 1, w)])
        got = qaoa_expectation(h, np.array([gamma]), np.array([beta]))
        assert abs(got - _closed_form(w, gamma, beta)) < 1e-10
    h_unit = ZZHamiltonian(2, [(0, 1, 1.0)])
    peak = qaoa_expectation(h_unit, np.array([np.pi / 4]), np.array([np.pi / 8]))
    assert peak == pytest.approx(1.0, abs=1e-10)


def test_mixer_beta_plus_pi_symmetry():
    sub = build_subgraph(generate_instance(8, 2, 7), n_qubits=4)
    h = build_cost_hamiltonian(sub)
    rng = np.random.default_rng(6)
    for _ in range(20):
        gammas = rng.uniform(0, 2 * np.pi, 2)
        betas = rng.uniform(0, np.pi, 2)
        base = qaoa_expectation(h, gammas, betas)
        shifted = qaoa_expectation(h, gammas, betas + np.pi)
        assert abs(base - shifted) < 1e-10


def test_optimizer_budget_and_monotone_history():
    sub = build_subgraph(generate_instance(8, 2, 7), n_qubits=4)
    h = build_cost_hamiltonian(sub)
    result = optimize_angles(h, p=2, max_iters=150, seed=7)
    assert result.iterations_used <= 150
    assert len(result.gammas) == 2 and len(result.betas) == 2
    assert result.cost_history, "history must record the initial evaluation"
    assert result.final_cost == pytest.approx(result.cost_history[-1])
    assert result.final_cost <= result.cost_history[0]
    diffs = np.diff(result.cost_history)
    assert np.all(diffs <= 0.0)


def test_optimizer_single_evaluation_budget():
    sub = build_subgraph(generate_instance(8, 2, 7), n_qubits=4)
    h = build_cost_hamiltonian(sub)
    result = optimize_angles(h, p=2, max_iters=1, seed=7)
    assert result.iterations_used == 1
    assert len(result.cost_history) == 1
    rng = np.random.default_rng(7)
    x0 = np.concatenate([rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, np.pi, 2)])
    np.testing.assert_array_equal(np.concatenate([result.gammas, result.betas]), x0)
    assert result.final_cost == pytest.approx(qaoa_expectation(h, x0[:2], x0[2:]))


def test_optimizer_deterministic_per_seed():
    sub = build_subgraph(generate_instance(8, 2, 7), n_qubits=4)
    h = build_cost_hamiltonian(sub)
    a = optimize_angles(h, p=2, max_iters=60, seed=3)
    b = optimize_angles(h, p=2, max_iters=60, seed=3)
    np.testing.assert_array_equal(a.gammas, b.gammas)
    np.testing.assert_array_equal(a.betas, b.betas)
    assert a.cost_history == b.cost_history

    other = optimize_angles(h, p=2, max_iters=60, seed=4)
    assert not np.array_equal(a.gammas, other.gammas)


def test_optimizer_validation():
    h = ZZHamiltonian(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        optimize_angles(h, p=0)
    with pytest.raises(ValueError):
        optimize_angles(h, p=1, max_iters=0)


def test_grid_scan_finds_no_point_below_optimizer():
    h = ZZHamiltonian(2, [(0, 1, 1.0)])
    result = optimize_angles(h, p=1, max_iters=150, seed=0)
    gammas = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    betas = np.linspace(0.0, np.pi, 100, endpoint=False)
    grid_min = min(_closed_form(1.0, g, b) for g in gammas for b in betas)
    assert grid_min >= result.final_cost - 1e-3


def test_export_warm_start_injects_angles_bit_exactly():
    instance = generate_instance(8, 2, 7)
    angles, sub = run_warmstart(instance, n_qubits=4, p=2, max_iters=40, seed=7)
    assert sub.selected_customers == build_subgraph(instance, 4).selected_customers

    rng = np.random.default_rng(0)
    params = init_policy_params(obs_dim=28, n_actions=8, rng=rng)
    patched = export_warm_start(angles, params)
    np.testing.assert_array_equal(patched.qaoa_angles[:, 0], angles.gammas)
    np.testing.assert_array_equal(patched.qaoa_angles[:, 1], angles.betas)
    np.testing.assert_array_equal(patched.rotation_angles, params.rotation_angles)
    np.testing.assert_array_equal(patched.encoder_w, params.encoder_w)
    np.testing.assert_array_equal(patched.head_w, params.head_w)


def test_export_warm_start_layer_mismatch():
    h = ZZHamiltonian(2, [(0, 1, 1.0)])
    angles = optimize_angles(h, p=3, max_iters=5, seed=1)
    two_layer = init_policy_params(obs_dim=28, n_actions=8, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="p=3"):
        export_warm_start(angles, two_layer)


def test_warmstart_json_roundtrip(tmp_path):
    instance = generate_instance(8, 2, 7)
    angles, sub = run_warmstart(instance, n_qubits=4, p=2, max_iters=30, seed=7)
    path = tmp_path / "warmstart.json"
    save_warmstart(angles, sub, 7, path)
    again = json.loads(path.read_text())
    assert again == warmstart_to_json(angles, sub, seed=7)
    assert again["p"] == 2 and again["seed"] == 7
    np.testing.assert_array_equal(again["gammas"], angles.gammas)
    np.testing.assert_array_equal(again["betas"], angles.betas)
    assert again["final_cost"] == angles.final_cost
    assert again["cost_history"] == angles.cost_history
    assert again["subgraph_indices"] == sub.selected_customers


def test_warmstart_json_keeps_evaluation_count():
    # The history holds only accepted steps, so its length is not the count of
    # objective evaluations; the file carries that count itself.
    instance = generate_instance(8, 2, 7)
    angles, sub = run_warmstart(instance, n_qubits=4, p=2, max_iters=150, seed=7)
    again = json.loads(json.dumps(warmstart_to_json(angles, sub, seed=7)))
    assert angles.iterations_used == 150
    assert len(angles.cost_history) < 150
    assert again["iterations_used"] == 150
