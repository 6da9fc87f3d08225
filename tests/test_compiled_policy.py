"""Property tests of the compiled policy circuit against the gate-by-gate path.

The compiled path turns everything after the data layer into three commuting
blocks per layer (RY map, RZ/RZZ phase vector, RX map) and their product
V(theta), and takes every circuit-angle gradient of an episode by one backward
sweep over the blocks.  Here it is checked, over random angles and random ZZ
Hamiltonians, against run_circuit and the per-slot parameter-shift oracle
z_readout_gradients, which run every gate on its own.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hqrl import training
from hqrl.env import state_dim
from hqrl.policy import (PolicyParams, _compile, _sweep, circuit_terms, compile_policy,
                         encode_observation, init_policy_params, init_value_params,
                         masked_softmax, policy_circuit_for_size, reinforce_gradients,
                         value_forward)
from hqrl.sim import GATE_KINDS, ZZHamiltonian, _apply, ry_product_state, z_readouts
from oracles import basis_state, run_circuit, z_readout_gradients

N_QUBITS, N_LAYERS = 4, 2
PAIRS = [(i, j) for i in range(N_QUBITS) for j in range(i + 1, N_QUBITS)]
CRITERION_1_TERMS = [(0, 1, 1.0), (0, 2, 0.5), (1, 3, 0.75), (2, 3, 0.25)]
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

angles = st.floats(-2.0 * np.pi, 2.0 * np.pi, allow_nan=False)
hamiltonian_terms = st.lists(st.tuples(st.sampled_from(PAIRS), st.floats(0.0, 1.0)),
                             unique_by=lambda term: term[0], max_size=len(PAIRS)).map(
    lambda terms: sorted((i, j, w) for (i, j), w in terms))


def _params(rotation, qaoa):
    return PolicyParams(encoder_w=np.zeros((N_QUBITS, 1)), encoder_b=np.zeros(N_QUBITS),
                        rotation_angles=rotation, qaoa_angles=qaoa,
                        head_w=np.zeros((1, N_QUBITS)), head_b=np.zeros(1))


def _full_circuit(data, params, h):
    circuit, values = policy_circuit_for_size(params, h)
    values[:N_QUBITS] = data
    return circuit, values


def _gate_by_gate_map(params, h):
    """The gates after the data layer applied one at a time to the identity's rows."""
    circuit, values = policy_circuit_for_size(params, h)
    m = np.eye(2**N_QUBITS, dtype=np.complex128)
    for gate in circuit[N_QUBITS:]:
        _apply(m, gate.kind, gate.targets, values[gate.slot], N_QUBITS)
    return m


def _slot_table(data, params, h):
    """d<Z_q>/d(slot) for one state, shape (P, Q): the sweep driven by each unit
    readout weight in turn."""
    compiled = _compile(params, circuit_terms(h))
    states = ry_product_state(data[None])
    final = states @ compiled[1]
    columns = []
    for weights in np.eye(N_QUBITS):
        d_data, d_gates = _sweep(data[None], states, final, compiled, weights[None])
        columns.append(np.concatenate([d_data[0], d_gates]))
    return np.array(columns).T


policy_inputs = dict(
    rotation=arrays(np.float64, (N_LAYERS, N_QUBITS, 2), elements=angles),
    qaoa=arrays(np.float64, (N_LAYERS, 2), elements=angles),
    terms=hamiltonian_terms,
    data=arrays(np.float64, (N_QUBITS,), elements=st.floats(-np.pi, np.pi)),
)
criterion_1 = example(rotation=np.full((N_LAYERS, N_QUBITS, 2), 0.3),
                      qaoa=np.array([[0.7, -0.4], [1.1, 0.2]]), terms=CRITERION_1_TERMS,
                      data=np.array([0.5, -1.0, 2.0, -2.5]))


@PROPERTY
@criterion_1
@given(**policy_inputs)
def test_compiled_maps_are_unitary(rotation, qaoa, terms, data):
    params, h = _params(rotation, qaoa), ZZHamiltonian(N_QUBITS, terms)
    blocks, v, _ = _compile(params, circuit_terms(h))
    np.testing.assert_array_equal(v, compile_policy(params, h))
    np.testing.assert_allclose(v, _gate_by_gate_map(params, h), atol=1e-12)
    eye = np.eye(2**N_QUBITS)
    np.testing.assert_allclose(v @ v.conj().T, eye, atol=1e-12)
    for ry, phases, rx in zip(*blocks):
        for block in (ry, rx):
            np.testing.assert_allclose(block @ block.conj().T, eye, atol=1e-12)
        np.testing.assert_allclose(np.abs(phases), 1.0, atol=1e-12)


@PROPERTY
@criterion_1
@given(**policy_inputs)
def test_compiled_readouts_match_run_circuit(rotation, qaoa, terms, data):
    params, h = _params(rotation, qaoa), ZZHamiltonian(N_QUBITS, terms)
    circuit, values = _full_circuit(data, params, h)
    state = run_circuit(basis_state(N_QUBITS), circuit, values)
    compiled = ry_product_state(data) @ compile_policy(params, h)
    np.testing.assert_allclose(z_readouts(compiled), z_readouts(state.amplitudes), atol=1e-12)


@PROPERTY
@criterion_1
@given(**policy_inputs)
def test_compiled_slot_gradients_match_per_gate_shift(rotation, qaoa, terms, data):
    params, h = _params(rotation, qaoa), ZZHamiltonian(N_QUBITS, terms)
    circuit, values = _full_circuit(data, params, h)
    np.testing.assert_allclose(_slot_table(data, params, h),
                               z_readout_gradients(circuit, values, N_QUBITS), atol=1e-12)


def _slot_owners(h):
    """(group, index, scale) of every slot after the data layer: its gate angle
    is scale * parameter[group][index]."""
    owners = []
    for l in range(N_LAYERS):
        owners += [("rotation_angles", (l, q, 0), 1.0) for q in range(N_QUBITS)]
        owners += [("rotation_angles", (l, q, 1), 1.0) for q in range(N_QUBITS)]
        owners += [("qaoa_angles", (l, 0), 2.0 * w) for _, _, w in h.terms]
        owners += [("qaoa_angles", (l, 1), 2.0)] * N_QUBITS
    return owners


def _chained_policy_gradients(traj, params, vparams, h, value_baseline):
    """reinforce_gradients' policy part from one per-slot shift table per step,
    chained to the parameters by hand."""
    grads = {name: np.zeros_like(getattr(params, name))
             for name in ("encoder_w", "encoder_b", "rotation_angles", "qaoa_angles",
                          "head_w", "head_b")}
    loss = 0.0
    for obs, action, target in zip(traj.states, traj.actions, traj.normalized_returns):
        advantage = target - value_forward(obs, vparams) if value_baseline else target
        data = encode_observation(obs, params)
        circuit, values = _full_circuit(data, params, h)
        z = z_readouts(run_circuit(basis_state(N_QUBITS), circuit, values).amplitudes)
        mask = obs[-params.n_actions:] == 0.0
        probs = masked_softmax(params.head_w @ z + params.head_b, mask)
        loss -= np.log(probs[action]) * advantage
        d_logits = probs.copy()
        d_logits[action] -= 1.0
        d_logits[~mask] = 0.0
        d_logits *= advantage
        grads["head_w"] += np.outer(d_logits, z)
        grads["head_b"] += d_logits
        d_slots = z_readout_gradients(circuit, values, N_QUBITS) @ (d_logits @ params.head_w)
        for k, (group, index, scale) in enumerate(_slot_owners(h), start=N_QUBITS):
            grads[group][index] += scale * d_slots[k]
        d_pre = d_slots[:N_QUBITS] * (np.pi - data**2 / np.pi)  # d(pi tanh x)/dx
        grads["encoder_w"] += np.outer(d_pre, obs)
        grads["encoder_b"] += d_pre
    return grads, loss


@pytest.mark.parametrize("value_baseline", [True, False])
@pytest.mark.parametrize("n, k, seed", [(1, 1, 3), (3, 2, 5), (5, 2, 8)])
def test_reinforce_gradients_equal_a_chain_of_per_step_shift_tables(n, k, seed,
                                                                     value_baseline):
    config = training.RunConfig(n_customers=n, n_vehicles=k, seed=seed)
    instance, h = training._problem(config)
    rng = np.random.default_rng(seed)
    params = init_policy_params(state_dim(n, k), n, rng)
    params = PolicyParams(params.encoder_w, rng.normal(0.0, 0.3, N_QUBITS),
                          rng.uniform(-np.pi, np.pi, (N_LAYERS, N_QUBITS, 2)),
                          rng.uniform(-np.pi, np.pi, (N_LAYERS, 2)),
                          params.head_w + rng.normal(0.0, 0.3, params.head_w.shape),
                          rng.normal(0.0, 0.3, n))
    vparams = init_value_params(state_dim(n, k), rng)
    traj, _, _, _ = training.rollout(instance, params, h, rng)
    grads, _, loss, _ = reinforce_gradients(traj, params, vparams, h, value_baseline)
    expected, expected_loss = _chained_policy_gradients(traj, params, vparams, h,
                                                        value_baseline)
    assert loss == pytest.approx(expected_loss, rel=1e-12, abs=1e-12)
    for name, value in expected.items():
        scale = max(1.0, float(np.max(np.abs(value))))
        np.testing.assert_allclose(grads[name], value, atol=1e-12 * scale, rtol=0, err_msg=name)


@st.composite
def gates(draw, n):
    kind = draw(st.sampled_from(GATE_KINDS))
    if kind in ("CNOT", "RZZ"):
        targets = tuple(draw(st.permutations(range(n)))[:2])
    else:
        targets = (draw(st.integers(0, n - 1)),)
    return kind, targets, None if kind in ("H", "CNOT") else draw(angles)


@PROPERTY
@given(data=st.data(), n=st.integers(2, 5), rows=st.integers(1, 6))
def test_kernel_on_a_batch_equals_row_by_row(data, n, rows):
    batch = data.draw(arrays(np.float64, (rows, 2, 2**n), elements=st.floats(-1.0, 1.0)))
    batch = batch[:, 0] + 1j * batch[:, 1]
    one_by_one = batch.copy()
    for kind, targets, angle in data.draw(st.lists(gates(n), min_size=1, max_size=8)):
        _apply(batch, kind, targets, angle, n)
        for row in one_by_one:
            _apply(row, kind, targets, angle, n)
    np.testing.assert_array_equal(batch.view(np.float64), one_by_one.view(np.float64))
