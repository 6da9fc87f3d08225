"""Statevector simulator checks against independently built dense matrices.

They cover hqrl.sim's gate-by-gate simulator and the gate-by-gate oracles in
tests/oracles.py, which the block kernel's own tests lean on.

The oracle here never reuses the simulator's gate formulas: rotation and RZZ
matrices come from scipy.linalg.expm applied to the generator, embedded into
the full register by explicit basis-index arithmetic, and gradients are
checked against central finite differences of the raw expectation.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from hqrl.sim import (CircuitMetrics, GateOp, StateVector, ZZHamiltonian, apply_gate,
                      circuit_metrics, init_plus_state, z_readouts)
from oracles import (apply_cost_layer, apply_mixer_layer, basis_state, expectation_z,
                     expectation_zz, parameter_shift_gradient, run_circuit, z_readout_gradients)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def _embed_1q(mat: np.ndarray, q: int, n: int) -> np.ndarray:
    full = np.zeros((2**n, 2**n), dtype=complex)
    for col in range(2**n):
        bit = (col >> q) & 1
        for new_bit in (0, 1):
            row = (col & ~(1 << q)) | (new_bit << q)
            full[row, col] = mat[new_bit, bit]
    return full


def _gate_matrix(gate: GateOp, n: int) -> np.ndarray:
    """Independent dense matrix for one gate, rotations via expm."""
    if gate.kind == "H":
        return _embed_1q(_H_MAT, gate.targets[0], n)
    if gate.kind in ("RX", "RY", "RZ"):
        gen = {"RX": _X, "RY": _Y, "RZ": _Z}[gate.kind]
        return _embed_1q(expm(-0.5j * gate.angle * gen), gate.targets[0], n)
    if gate.kind == "RZZ":
        i, j = gate.targets
        signs = np.array([1.0 - 2.0 * (((b >> i) ^ (b >> j)) & 1) for b in range(2**n)])
        return expm(-0.5j * gate.angle * np.diag(signs))
    if gate.kind == "CNOT":
        c, t = gate.targets
        full = np.zeros((2**n, 2**n), dtype=complex)
        for col in range(2**n):
            row = col ^ (1 << t) if (col >> c) & 1 else col
            full[row, col] = 1.0
        return full
    raise AssertionError(gate.kind)


def _random_state(rng: np.random.Generator, n: int) -> StateVector:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def _random_gate(rng: np.random.Generator, n: int, slot: int | None = None) -> GateOp:
    kind = rng.choice(["H", "RX", "RY", "RZ", "CNOT", "RZZ"])
    if kind in ("CNOT", "RZZ"):
        i, j = rng.choice(n, size=2, replace=False)
        targets = (int(i), int(j))
    else:
        targets = (int(rng.integers(n)),)
    angle = float(rng.uniform(-np.pi, np.pi)) if kind in ("RX", "RY", "RZ", "RZZ") else None
    return GateOp(kind, targets, angle, slot if angle is not None else None)


def test_plus_state_values():
    one = init_plus_state(1)
    np.testing.assert_allclose(one.amplitudes, [2**-0.5, 2**-0.5], atol=1e-15)
    four = init_plus_state(4)
    assert four.amplitudes.shape == (16,)
    np.testing.assert_allclose(four.amplitudes, 0.25, atol=1e-15)
    h = ZZHamiltonian(2, [(0, 1, 1.0)])
    assert abs(expectation_zz(init_plus_state(2), h)) < 1e-12


def test_plus_state_rejects_bad_width():
    with pytest.raises(ValueError):
        init_plus_state(0)
    with pytest.raises(ValueError):
        init_plus_state(21)


def test_basis_state_bounds():
    s = basis_state(3, 5)
    assert s.amplitudes[5] == 1.0 and s.norm() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        basis_state(2, 4)


def test_apply_gate_textbook_cases():
    flipped = apply_gate(basis_state(1), GateOp("RX", (0,), np.pi))
    np.testing.assert_allclose(flipped.probabilities(), [0.0, 1.0], atol=1e-12)

    zz = apply_gate(basis_state(2), GateOp("RZZ", (0, 1), 0.7))
    np.testing.assert_allclose(zz.probabilities(), basis_state(2).probabilities(), atol=1e-15)

    half = apply_gate(basis_state(1), GateOp("RY", (0,), np.pi / 2))
    np.testing.assert_allclose(half.probabilities(), [0.5, 0.5], atol=1e-12)


def test_gates_match_expm_matrix_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        state = _random_state(rng, n)
        gate = _random_gate(rng, n) if n > 1 else GateOp(
            str(rng.choice(["H", "RX", "RY", "RZ"])), (0,), float(rng.uniform(-np.pi, np.pi)))
        if gate.kind == "H":
            gate = GateOp("H", gate.targets)
        expected = _gate_matrix(gate, n) @ state.amplitudes
        got = apply_gate(state, gate)
        np.testing.assert_allclose(got.amplitudes, expected, atol=1e-12)


def test_norm_preserved_over_long_random_sequence():
    rng = np.random.default_rng(23)
    state = init_plus_state(4)
    for _ in range(2000):
        state = apply_gate(state, _random_gate(rng, 4))
    assert abs(state.norm() - 1.0) < 1e-10


def test_gate_then_inverse_restores_state():
    rng = np.random.default_rng(5)
    state = _random_state(rng, 3)
    for kind in ("RX", "RY", "RZ"):
        theta = 1.234
        back = apply_gate(apply_gate(state, GateOp(kind, (1,), theta)), GateOp(kind, (1,), -theta))
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)
    back = apply_gate(apply_gate(state, GateOp("RZZ", (0, 2), 0.9)), GateOp("RZZ", (0, 2), -0.9))
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)
    for kind in ("H", "CNOT"):
        targets = (1,) if kind == "H" else (0, 1)
        back = apply_gate(apply_gate(state, GateOp(kind, targets)), GateOp(kind, targets))
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)


def test_gate_validation_errors():
    state = basis_state(2)
    with pytest.raises(ValueError):
        apply_gate(state, GateOp("RX", (2,), 0.1))
    with pytest.raises(ValueError):
        apply_gate(state, GateOp("CNOT", (1, 1)))
    with pytest.raises(ValueError):
        apply_gate(state, GateOp("SWAP", (0, 1)))
    with pytest.raises(ValueError):
        apply_gate(state, GateOp("RX", (0,)))  # neither angle nor slot
    with pytest.raises(ValueError):
        apply_gate(state, GateOp("H", (0,), slot=0))
    with pytest.raises(ValueError):
        apply_gate(state, GateOp("RX", (0,), slot=0))  # unbound slot
    with pytest.raises(ValueError):
        apply_gate(StateVector(1, np.array([2.0, 0.0], dtype=complex)), GateOp("H", (0,)))


def test_cost_layer_matches_per_term_rzz_and_commutes():
    rng = np.random.default_rng(3)
    h = ZZHamiltonian(3, [(0, 1, 0.4), (0, 2, 1.0), (1, 2, 0.75)])
    state = _random_state(rng, 3)
    gamma = 0.8

    unchanged = apply_cost_layer(state, h, 0.0)
    np.testing.assert_allclose(unchanged.amplitudes, state.amplitudes, atol=1e-15)

    expected = state
    for i, j, w in h.terms:
        expected = apply_gate(expected, GateOp("RZZ", (i, j), 2.0 * gamma * w))
    got = apply_cost_layer(state, h, gamma)
    np.testing.assert_allclose(got.amplitudes, expected.amplitudes, atol=1e-14)

    shuffled = ZZHamiltonian(3, [(1, 2, 0.75), (0, 1, 0.4), (0, 2, 1.0)])
    reordered = apply_cost_layer(state, shuffled, gamma)
    np.testing.assert_allclose(reordered.amplitudes, got.amplitudes, atol=1e-14)

    with pytest.raises(ValueError):
        apply_cost_layer(state, ZZHamiltonian(2, [(0, 1, 1.0)]), gamma)


def test_cost_layer_keeps_plus_state_expectation_zero():
    h = ZZHamiltonian(2, [(0, 1, 1.0)])
    for gamma in np.linspace(-2.0, 2.0, 9):
        evolved = apply_cost_layer(init_plus_state(2), h, float(gamma))
        assert abs(expectation_zz(evolved, h)) < 1e-12


def test_mixer_layer_cases():
    state = basis_state(4)
    np.testing.assert_allclose(apply_mixer_layer(state, 0.0).amplitudes, state.amplitudes,
                               atol=1e-15)
    all_ones = apply_mixer_layer(state, np.pi / 2)
    np.testing.assert_allclose(all_ones.probabilities()[-1], 1.0, atol=1e-12)
    half = apply_mixer_layer(basis_state(1), np.pi / 4)
    np.testing.assert_allclose(half.probabilities(), [0.5, 0.5], atol=1e-12)


def test_zz_hamiltonian_validation():
    with pytest.raises(ValueError):
        ZZHamiltonian(2, [(1, 0, 0.5)])
    with pytest.raises(ValueError):
        ZZHamiltonian(2, [(0, 1, 1.5)])
    with pytest.raises(ValueError):
        ZZHamiltonian(2, [(0, 2, 0.5)])


def test_expectation_values():
    assert expectation_z(basis_state(1, 0), 0) == pytest.approx(1.0)
    assert expectation_z(basis_state(1, 1), 0) == pytest.approx(-1.0)
    half = apply_gate(basis_state(1), GateOp("RY", (0,), np.pi / 2))
    assert abs(expectation_z(half, 0)) < 1e-12

    h = ZZHamiltonian(2, [(0, 1, 0.5)])
    assert expectation_zz(basis_state(2, 0b00), h) == pytest.approx(0.5)
    assert expectation_zz(basis_state(2, 0b01), h) == pytest.approx(-0.5)

    with pytest.raises(ValueError):
        expectation_z(basis_state(2), 2)
    with pytest.raises(ValueError):
        expectation_zz(basis_state(3), h)


def test_z_readouts_match_single_readouts():
    rng = np.random.default_rng(9)
    state = _random_state(rng, 3)
    per_qubit = [expectation_z(state, q) for q in range(3)]
    np.testing.assert_allclose(z_readouts(state.amplitudes), per_qubit, atol=1e-14)


def test_parameter_shift_single_ry():
    circuit = [GateOp("RY", (0,), slot=0)]
    assert parameter_shift_gradient(circuit, np.array([0.0]), 0) == pytest.approx(0.0)
    grad = parameter_shift_gradient(circuit, np.array([np.pi / 2]), 0)
    assert grad[0] == pytest.approx(-1.0)


def test_parameter_shift_matches_finite_differences_on_random_circuits():
    rng = np.random.default_rng(77)
    h_fd = 1e-5
    for _ in range(100):
        n = int(rng.integers(2, 4))
        n_slots = int(rng.integers(2, 7))
        circuit, params = [], []
        for slot in range(n_slots):
            kind = str(rng.choice(["RX", "RY", "RZ", "RZZ"]))
            if kind == "RZZ":
                i, j = sorted(rng.choice(n, size=2, replace=False))
                targets = (int(i), int(j))
            else:
                targets = (int(rng.integers(n)),)
            circuit.append(GateOp(kind, targets, slot=slot))
            params.append(float(rng.uniform(-np.pi, np.pi)))
            if rng.random() < 0.3:
                circuit.append(GateOp("H", (int(rng.integers(n)),)))
        params = np.array(params)
        terms = [(i, j, float(rng.uniform(0.1, 1.0)))
                 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.8]
        if not terms:
            terms = [(0, 1, 1.0)]
        observable = ZZHamiltonian(n, terms)

        def f(theta: np.ndarray) -> float:
            return expectation_zz(run_circuit(basis_state(n), circuit, theta), observable)

        analytic = parameter_shift_gradient(circuit, params, observable)
        for k in range(n_slots):
            bump = np.zeros_like(params)
            bump[k] = h_fd
            fd = (f(params + bump) - f(params - bump)) / (2.0 * h_fd)
            assert abs(analytic[k] - fd) < 1e-6


def test_z_readout_gradients_match_per_qubit_shift():
    rng = np.random.default_rng(13)
    circuit = [GateOp("RY", (0,), slot=0), GateOp("RZZ", (0, 1), slot=1),
               GateOp("RX", (1,), slot=2), GateOp("RZ", (2,), slot=3)]
    params = rng.uniform(-np.pi, np.pi, 4)
    table = z_readout_gradients(circuit, params, 3)
    for q in range(3):
        np.testing.assert_allclose(table[:, q], parameter_shift_gradient(circuit, params, q),
                                   atol=1e-12)


def test_parameter_shift_validation():
    with pytest.raises(ValueError):
        parameter_shift_gradient([GateOp("H", (0,))], np.array([]), 0)
    with pytest.raises(ValueError):
        parameter_shift_gradient([GateOp("RY", (0,), slot=1)], np.array([0.5]), 0)
    with pytest.raises(ValueError):
        parameter_shift_gradient([GateOp("RY", (0,), slot=0)], np.array([0.5, 0.5]), 0)
    with pytest.raises(ValueError):
        parameter_shift_gradient([GateOp("RY", (0,), slot=0)], np.array([0.5]), "bad")


def test_run_circuit_slot_handling():
    circuit = [GateOp("RY", (0,), slot=0)]
    with pytest.raises(ValueError):
        run_circuit(basis_state(1), circuit)
    out = run_circuit(basis_state(1), circuit, np.array([np.pi]))
    np.testing.assert_allclose(out.probabilities(), [0.0, 1.0], atol=1e-12)


def test_circuit_metrics_cases():
    assert circuit_metrics([]) == CircuitMetrics(0, 0, 0)
    seq = [GateOp("RX", (0,), 0.1)] * 3
    assert circuit_metrics(seq) == CircuitMetrics(3, 1, 3)
    parallel = [GateOp("H", (0,)), GateOp("H", (1,)), GateOp("H", (2,))]
    assert circuit_metrics(parallel).depth == 1
    layered = [GateOp("H", (0,)), GateOp("CNOT", (0, 1))]
    assert circuit_metrics(layered) == CircuitMetrics(2, 2, 2)
