"""Warm-start pipeline tests: subgraph weights, ansatz expectation against a
hand-derived closed form and against the gate-by-gate chain in
tests/oracles.py, optimizer contracts, grid-scan optimality, export, and the
Nelder-Mead port against scipy.optimize.minimize, kept as its oracle.

The single-edge closed form used throughout: for one ZZ term of weight w and
one cost+mixer round starting from |++>, writing out the four amplitudes gives
<H_C>(gamma, beta) = w * sin(2*gamma*w) * sin(4*beta).
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hqrl
import oracles
from hqrl import warmstart
from hqrl.env import VrpInstance, generate_instance
from hqrl.policy import N_QUBITS, init_policy_params
from hqrl.sim import ZZHamiltonian
from hqrl.training import DEFAULT_SEEDS, RunConfig, policy_hamiltonian
from hqrl.warmstart import (MAX_ITERS, build_cost_hamiltonian, build_subgraph,
                            export_warm_start, optimize_angles, qaoa_expectation, run_warmstart,
                            save_warmstart, warmstart_to_json)


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


def test_qaoa_expectation_rejects_a_hamiltonian_wider_than_the_policy_register():
    wide = ZZHamiltonian(N_QUBITS + 1, [(0, N_QUBITS, 1.0)])
    with mock.patch.object(warmstart, "z_generators") as generators:
        with pytest.raises(ValueError, match="policy register"):
            qaoa_expectation(wide, np.zeros(1), np.zeros(1))
    generators.assert_not_called()


_ANGLE = st.floats(-2.0 * np.pi, 2.0 * np.pi, allow_nan=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 25),
       layers=st.lists(st.tuples(_ANGLE, _ANGLE), min_size=1, max_size=3))
def test_qaoa_expectation_on_the_blocks_matches_the_gate_by_gate_chain(seed, n, layers):
    # N=1 leaves one qubit and no term; N=2..4 give 2..4 qubits, larger N four.
    h = _hamiltonian(n, seed)
    gammas, betas = np.array(layers).T
    assert abs(qaoa_expectation(h, gammas, betas)
               - oracles.qaoa_expectation(h, gammas, betas)) <= 1e-12


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


def _hamiltonian(n: int, seed: int) -> ZZHamiltonian:
    return build_cost_hamiltonian(build_subgraph(generate_instance(n, 1, seed), n_qubits=4))


def _scipy_nelder_mead(f, x0, budget):
    """The search optimize_angles ran on scipy before the port, kept as its oracle."""
    from scipy.optimize import minimize
    minimize(f, x0, method="Nelder-Mead",
             options={"maxfev": 10 * budget, "xatol": 1e-10, "fatol": 1e-12})


def _on_scipy(h, p, budget, seed):
    with mock.patch.object(warmstart, "_nelder_mead",
                           lambda f, x0: _scipy_nelder_mead(f, x0, budget)):
        return optimize_angles(h, p, budget, seed)


def _assert_port_equals_scipy(h, p, budget, seed):
    port, oracle = optimize_angles(h, p, budget, seed), _on_scipy(h, p, budget, seed)
    assert port.gammas.tobytes() == oracle.gammas.tobytes()
    assert port.betas.tobytes() == oracle.betas.tobytes()
    assert port.final_cost == oracle.final_cost
    assert port.iterations_used == oracle.iterations_used
    assert port.cost_history == oracle.cost_history
    return port


@pytest.mark.parametrize("seed", DEFAULT_SEEDS)
def test_nelder_mead_port_equals_scipy_on_the_gate_warm_starts(seed):
    for n in (5, 8, 10, 12, 15, 25):
        _assert_port_equals_scipy(_hamiltonian(n, seed), 2, 150, seed)
    _assert_port_equals_scipy(ZZHamiltonian(2, [(0, 1, 1.0)]), 1, 150, 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 25), p=st.sampled_from([1, 2, 3]),
       budget=st.sampled_from([1, 2, 60, 150, 400]))
def test_nelder_mead_port_equals_scipy(seed, n, p, budget):
    _assert_port_equals_scipy(_hamiltonian(n, seed), p, budget, seed)


def test_nelder_mead_port_stops_on_a_collapsed_simplex_as_scipy_does():
    # One customer leaves a one-qubit Hamiltonian without terms, so every
    # evaluation is 0.0: no step is ever accepted, the patience rule cannot
    # fire, and only the 1e-10 / 1e-12 test ends the search before the budget.
    # No instance with two or more customers was found to end this way.
    result = _assert_port_equals_scipy(_hamiltonian(1, 3), 2, 400, 3)
    assert result.cost_history == [0.0]
    assert 1 < result.iterations_used < 400


# (seed, N, K) of every two-layer warm start the acceptance gate runs (criteria
# 3-9, and at full budget criterion 9's 10-evaluation CLI run), then of the CLI
# artifact matrix's (tests/test_golden.py): train, warmstart, sweep, ablate.
GATE_WARM_STARTS = ([(seed, n, 2) for seed in DEFAULT_SEEDS for n in (5, 8, 15, 25)]
                    + [(7, 6, 2), (7, 10, 2), (7, 12, 2), (5, 4, 2)])
GOLDEN_WARM_STARTS = [(7, 8, 2), (77, 8, 2), (5, 3, 1), (9, 2, 1), (7, 4, 2), (7, 5, 2)]


def _assert_search_on_the_blocks_takes_the_chains_steps(h, p, seed):
    blocks = optimize_angles(h, p, MAX_ITERS, seed)
    with mock.patch.object(warmstart, "qaoa_expectation", oracles.qaoa_expectation):
        chain = optimize_angles(h, p, MAX_ITERS, seed)
    assert blocks.gammas.tobytes() == chain.gammas.tobytes()
    assert blocks.betas.tobytes() == chain.betas.tobytes()
    assert blocks.iterations_used == chain.iterations_used
    assert abs(blocks.final_cost - chain.final_cost) <= 1e-12
    assert len(blocks.cost_history) == len(chain.cost_history)
    np.testing.assert_allclose(blocks.cost_history, chain.cost_history, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seed, n, k", GATE_WARM_STARTS + GOLDEN_WARM_STARTS)
def test_search_on_the_blocks_takes_the_steps_of_the_gate_by_gate_chain(seed, n, k):
    h = policy_hamiltonian(RunConfig(n_customers=n, n_vehicles=k, seed=seed))
    _assert_search_on_the_blocks_takes_the_chains_steps(h, 2, seed)


def test_criterion_2s_single_edge_search_takes_the_chains_steps():
    _assert_search_on_the_blocks_takes_the_chains_steps(ZZHamiltonian(2, [(0, 1, 1.0)]), 1, 0)


class _Budget(Exception):
    pass


def _evaluated_points(search, f, x0, budget):
    """The bytes of every point the search evaluates f at, in order, until it
    returns or has made `budget` evaluations."""
    points = []

    def counted(x):
        if len(points) == budget:
            raise _Budget
        points.append(np.array(x).tobytes())
        return f(x)

    try:
        search(counted, x0)
    except _Budget:
        pass
    return points


# Plateaus and exact ties exercise each strict and non-strict comparison.
_STEPPED = {
    "bowl": lambda x: float(np.floor(4.0 * np.sum((x - 0.3) ** 2)) / 4.0),
    "waves": lambda x: float(np.round(np.sum(np.sin(3.0 * x)), 1)),
    "flat": lambda x: 1.0,
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x0=st.lists(st.sampled_from([0.0, 0.5, -1.25, 2.0]) | st.floats(-4.0, 4.0),
                   min_size=1, max_size=6),
       name=st.sampled_from(sorted(_STEPPED)), budget=st.sampled_from([3, 40, 300]))
def test_nelder_mead_port_evaluates_the_points_scipy_does(x0, name, budget):
    x0, f = np.array(x0), _STEPPED[name]
    on_scipy = _evaluated_points(lambda g, start: _scipy_nelder_mead(g, start, budget),
                                 f, x0, budget)
    assert _evaluated_points(warmstart._nelder_mead, f, x0, budget) == on_scipy


def test_importing_the_package_loads_no_scipy():
    src = Path(hqrl.__file__).resolve().parents[1]
    code = ("import sys, hqrl, hqrl.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
