"""Property tests of the compiled policy circuit against the gate-by-gate path.

The compiled path turns everything after the data layer into one 16x16 map
V(theta) plus its +/- pi/2 shifted twins.  Here it is checked, over random
angles and random ZZ Hamiltonians, against run_circuit and the per-slot
parameter-shift oracle z_readout_gradients, which run every gate on its own.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hqrl.policy import (PolicyParams, _circuit_template, _readout_gradients, _tail_angles,
                         compile_policy, policy_circuit_for_size)
from hqrl.sim import (GATE_KINDS, ZZHamiltonian, _apply, all_z_expectations, basis_state,
                      parameter_shift_maps, ry_product_state, run_circuit, z_readout_gradients,
                      z_readouts)

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


def _compiled(params, h):
    _, _, tail = _circuit_template(tuple(h.terms))
    return parameter_shift_maps(tail, _tail_angles(params, h), N_QUBITS)


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
    tail, shifted = _compiled(params, h)
    np.testing.assert_array_equal(tail, compile_policy(params, h))
    eye = np.eye(2**N_QUBITS)
    np.testing.assert_allclose(tail @ tail.conj().T, eye, atol=1e-12)
    np.testing.assert_allclose(shifted @ np.conj(np.swapaxes(shifted, 1, 2)),
                               np.broadcast_to(eye, shifted.shape), atol=1e-12)


@PROPERTY
@criterion_1
@given(**policy_inputs)
def test_compiled_readouts_match_run_circuit(rotation, qaoa, terms, data):
    params, h = _params(rotation, qaoa), ZZHamiltonian(N_QUBITS, terms)
    circuit, values = _full_circuit(data, params, h)
    state = run_circuit(basis_state(N_QUBITS), circuit, values)
    compiled = ry_product_state(data) @ compile_policy(params, h)
    np.testing.assert_allclose(z_readouts(compiled), all_z_expectations(state), atol=1e-12)


@PROPERTY
@criterion_1
@given(**policy_inputs)
def test_compiled_slot_gradients_match_per_gate_shift(rotation, qaoa, terms, data):
    params, h = _params(rotation, qaoa), ZZHamiltonian(N_QUBITS, terms)
    circuit, values = _full_circuit(data, params, h)
    tail, shifted = _compiled(params, h)
    z, grads = _readout_gradients(data[None], tail, shifted)
    state = run_circuit(basis_state(N_QUBITS), circuit, values)
    np.testing.assert_allclose(z[0], all_z_expectations(state), atol=1e-12)
    np.testing.assert_allclose(grads[:, 0, :], z_readout_gradients(circuit, values, N_QUBITS),
                               atol=1e-12)


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
