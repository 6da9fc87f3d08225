"""Tests for the benchmark's reference computations and span recorder.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder  # noqa: E402

from hqrl import env, policy, solvers, training, warmstart  # noqa: E402


def _points(seed: int, n: int):
    rng = np.random.default_rng(seed)
    return rng.random(2), rng.random((n, 2))


def _enumerated_vrp_cost(depot, customers, k: int) -> float:
    """Every assignment of customers to k labelled vehicles, every visiting order."""
    n = len(customers)
    best = math.inf
    for labels in itertools.product(range(k), repeat=n):
        total = 0.0
        for v in range(k):
            group = [c for c in range(n) if labels[c] == v]
            if group:
                total += min(reference.tour_length(depot, customers, {0: list(order)})
                             for order in itertools.permutations(group))
        best = min(best, total)
    return best


def test_tour_length_unit_square():
    depot = [0.0, 0.0]
    customers = [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    assert reference.tour_length(depot, customers, {0: [0, 1, 2]}) == pytest.approx(4.0)
    assert reference.tour_length(depot, customers, {0: [0], 1: [2], 2: []}) == pytest.approx(4.0)


def test_is_partition():
    assert reference.is_partition({0: [2, 0], 1: [1]}, 3, 2)
    assert not reference.is_partition({0: [0, 0], 1: [1]}, 3, 2)
    assert not reference.is_partition({0: [0, 1], 2: [2]}, 3, 2)


@pytest.mark.parametrize("seed,n,k", [(0, 4, 1), (1, 5, 2), (2, 5, 3), (3, 6, 2), (4, 3, 3)])
def test_exact_vrp_cost_matches_enumeration(seed, n, k):
    depot, customers = _points(seed, n)
    assert reference.exact_vrp_cost(depot, customers, k) == pytest.approx(
        _enumerated_vrp_cost(depot, customers, k), abs=1e-12)


def test_exact_vrp_cost_matches_program_brute_force():
    for seed, (n, k) in enumerate([(6, 2), (7, 3)]):
        instance = env.generate_instance(n, k, seed)
        assert abs(reference.exact_vrp_cost(instance.depot, instance.customers, k)
                   - solvers.brute_force_optimal(instance)[1]) <= 1e-12


def test_subset_tour_costs_single_customer():
    depot, customers = _points(5, 3)
    tours = reference.subset_tour_costs(depot, customers)
    assert tours[0] == 0.0
    for c in range(3):
        assert tours[1 << c] == pytest.approx(2 * math.dist(depot, customers[c]))


def test_zz_matrix_diagonal_is_the_bitstring_energy():
    terms = [(0, 1, 0.5), (1, 3, 1.0), (0, 2, 0.25)]
    h = reference.zz_matrix(4, terms)
    assert np.allclose(h, np.diag(np.diag(h)))
    for x in range(16):
        z = [1 - 2 * (x >> q & 1) for q in range(4)]
        assert h[x, x].real == pytest.approx(sum(w * z[i] * z[j] for i, j, w in terms))
    assert reference.ground_energy(4, terms) == pytest.approx(np.diag(h).real.min())


def test_qaoa_energy_matches_matrix_exponentials():
    terms = [(0, 1, 0.7), (0, 2, 1.0), (1, 2, 0.2)]
    h = reference.zz_matrix(3, terms)
    mixer = sum(reference.kron_qubits([reference.X if q == t else reference.I2
                                       for q in range(3)]) for t in range(3))
    gammas, betas = [0.4, -1.1], [0.9, 0.3]
    psi = np.full(8, 8 ** -0.5, dtype=complex)
    for g, b in zip(gammas, betas):
        psi = expm(-1j * b * mixer) @ expm(-1j * g * h) @ psi
    expected = float(np.real(np.conj(psi) @ h @ psi))
    assert reference.qaoa_energy(3, terms, gammas, betas) == pytest.approx(expected, abs=1e-12)
    assert reference.qaoa_energy(3, terms, [0.0], [0.7]) == pytest.approx(0.0, abs=1e-12)


def test_qaoa_energy_and_subgraph_match_program():
    instance = env.generate_instance(8, 2, 21)
    terms = reference.depot_subgraph_terms(instance.depot, instance.customers, 4)
    hamiltonian = warmstart.build_cost_hamiltonian(warmstart.build_subgraph(instance, 4))
    assert [(i, j) for i, j, _ in terms] == [(i, j) for i, j, _ in hamiltonian.terms]
    assert np.allclose([w for *_, w in terms], [w for *_, w in hamiltonian.terms],
                       rtol=0, atol=1e-15)
    gammas, betas = np.array([0.3, 1.2]), np.array([-0.4, 0.8])
    assert reference.qaoa_energy(4, terms, gammas, betas) == pytest.approx(
        warmstart.qaoa_expectation(hamiltonian, gammas, betas), abs=1e-12)


def test_policy_probabilities_match_program():
    cfg = training.RunConfig(n_customers=6, n_vehicles=2, seed=5)
    instance = env.generate_instance(6, 2, 5)
    rng = np.random.default_rng(0)
    params = policy.init_policy_params(env.state_dim(6, 2), 6, rng)
    h_policy = training.policy_hamiltonian(cfg)
    terms = reference.depot_subgraph_terms(instance.depot, instance.customers, 4)
    u = reference.policy_unitary(4, params.rotation_angles, params.qaoa_angles, terms)
    assert np.allclose(u.conj().T @ u, np.eye(16), atol=1e-12)
    obs = env.encode_state(instance, env.reset(instance))
    mask = np.array([True, False, True, True, False, True])
    got = policy.policy_forward(obs, params, h_policy, mask).probabilities
    want = reference.policy_probabilities(obs, params.encoder_w, params.encoder_b, u,
                                          params.head_w, params.head_b, mask)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_central_difference_of_a_cubic():
    x = np.array([0.3, -1.2, 2.0])
    grad = reference.central_difference(lambda v: float(np.sum(v ** 3)), x)
    assert np.allclose(grad, 3 * x ** 2, atol=1e-8)


def test_span_recorder_nests_and_restores():
    original_route_cost = solvers.route_cost
    original_nn = solvers.nearest_neighbor
    recorder = SpanRecorder()
    recorder.install({"solvers": ["nearest_neighbor"], "env": ["route_cost", "no_such_fn"]})
    try:
        assert recorder.absent == ["env.no_such_fn"]
        instance = env.generate_instance(5, 2, 3)
        solvers.nearest_neighbor(instance)  # inactive: records nothing
        assert recorder.names == []
        recorder.active = True
        solvers.nearest_neighbor(instance)
        recorder.active = False
    finally:
        recorder.uninstall()
    assert solvers.route_cost is original_route_cost
    assert solvers.nearest_neighbor is original_nn
    assert recorder.names == ["solvers.nearest_neighbor", "env.route_cost"]
    assert recorder.parents == [-1, 0]
    own = recorder.self_times()
    assert own[0] == pytest.approx((recorder.ends[0] - recorder.starts[0])
                                   - (recorder.ends[1] - recorder.starts[1]))
    assert sum(own) == pytest.approx(recorder.top_level_time())
    summary = recorder.summary(["solvers.nearest_neighbor", "env.route_cost", "env.no_such_fn"])
    assert summary["env.route_cost"]["calls"] == 1
    assert summary["env.no_such_fn"] == {"calls": 0, "self_s": 0.0, "median_us": 0.0}


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
