"""Reference implementations the fast paths are tested against.

The simulator functions apply one gate at a time through hqrl.sim's gate
kernel `_apply` on a StateVector, copying and re-validating the state as it
goes.  Training and the warm start never call them: the policy and the QAOA
warm start run on 16x16 blocks (`rotation_layer`, `z_generators`).  The tests
check those blocks against these functions, and the per-slot parameter-shift
rule here is the reference for the policy's backward sweep.

`norm_step` is the environment's transition on vehicle coordinates, each
distance a per-pair np.linalg.norm: the reference for env.step and
env.table_step, which read the distances from env.distance_tables.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from hqrl.env import INVALID_PENALTY, VrpInstance
from hqrl.sim import (GateOp, StateVector, ZZHamiltonian, _apply, _check_gate, _check_normalized,
                      _check_width, _pair_parity, _z_sign_matrix, init_plus_state, z_readouts)


def basis_state(n_qubits: int, index: int = 0) -> StateVector:
    _check_width(n_qubits)
    if not 0 <= index < 2**n_qubits:
        raise ValueError(f"basis index {index} out of range")
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def run_circuit(state: StateVector, circuit: Sequence[GateOp], params: np.ndarray | None = None) -> StateVector:
    """Apply a gate list in order, resolving parameter slots from params."""
    _check_normalized(state.amplitudes)
    n = state.n_qubits
    amps = state.amplitudes.copy()
    for gate in circuit:
        _check_gate(gate, n)
        if gate.slot is not None and params is None:
            raise ValueError("circuit has parameter slots but no params were given")
        angle = float(params[gate.slot]) if gate.slot is not None else gate.angle
        _apply(amps, gate.kind, gate.targets, angle, n)
    return StateVector(n, amps)


def apply_cost_layer(state: StateVector, hamiltonian: ZZHamiltonian, gamma: float) -> StateVector:
    """exp(-i gamma H_C) for H_C = sum w Z_i Z_j, i.e. RZZ(2*gamma*w) per term."""
    if hamiltonian.n_qubits != state.n_qubits:
        raise ValueError("hamiltonian width does not match the state")
    amps = state.amplitudes.copy()
    for i, j, w in hamiltonian.terms:
        _apply(amps, "RZZ", (i, j), 2.0 * gamma * w, state.n_qubits)
    return StateVector(state.n_qubits, amps)


def apply_mixer_layer(state: StateVector, beta: float) -> StateVector:
    """exp(-i beta H_B) for H_B = sum X_q, i.e. RX(2*beta) on every qubit."""
    amps = state.amplitudes.copy()
    for q in range(state.n_qubits):
        _apply(amps, "RX", (q,), 2.0 * beta, state.n_qubits)
    return StateVector(state.n_qubits, amps)


def expectation_z(state: StateVector, qubit: int) -> float:
    """<Z_q>, analytic."""
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    return float(np.dot(_z_sign_matrix(state.n_qubits)[:, qubit], state.probabilities()))


def expectation_zz(state: StateVector, hamiltonian: ZZHamiltonian) -> float:
    """<H_C> = sum_k w_k <Z_i Z_j>, analytic."""
    if hamiltonian.n_qubits != state.n_qubits:
        raise ValueError("hamiltonian width does not match the state")
    probs = state.probabilities()
    total = 0.0
    for i, j, w in hamiltonian.terms:
        signs = 1.0 - 2.0 * _pair_parity(state.n_qubits, i, j)
        total += w * np.dot(signs, probs)
    return float(total)


def _validate_slots(circuit: Sequence[GateOp], params: np.ndarray) -> None:
    slots = [g.slot for g in circuit if g.slot is not None]
    if sorted(slots) != list(range(len(slots))):
        raise ValueError("parameter slots must be 0..P-1, each used exactly once")
    if len(params) != len(slots):
        raise ValueError(f"expected {len(slots)} params, got {len(params)}")


def _shift_rule(circuit: Sequence[GateOp], params: np.ndarray, n_qubits: int,
                readout) -> np.ndarray:
    """[f(theta_k + pi/2) - f(theta_k - pi/2)] / 2 per slot k, with f the readout
    of the final state: each shifted circuit is run from |0...0> on its own."""
    if len(params) == 0:
        raise ValueError("circuit has no parameter slots")

    def f(k: int, delta: float):
        bumped = np.array(params, dtype=float)
        bumped[k] += delta
        return readout(run_circuit(basis_state(n_qubits), circuit, bumped))
    return np.array([0.5 * (f(k, np.pi / 2.0) - f(k, -np.pi / 2.0)) for k in range(len(params))])


def parameter_shift_gradient(circuit: Sequence[GateOp], params: np.ndarray, observable) -> np.ndarray:
    """Exact gradient of <observable> via the pi/2 parameter-shift rule.

    Component k is [f(theta_k + pi/2) - f(theta_k - pi/2)] / 2, with f the
    expectation after running the circuit from |0...0>.  Exact here because
    every parametric gate's generator squares to the identity and each slot
    feeds exactly one gate.  The reference the policy's gradient sweep is tested against.
    """
    _validate_slots(circuit, params)
    n = max(q for g in circuit for q in g.targets) + 1
    if isinstance(observable, ZZHamiltonian):
        return _shift_rule(circuit, params, max(n, observable.n_qubits),
                           lambda state: expectation_zz(state, observable))
    if isinstance(observable, (int, np.integer)):
        return _shift_rule(circuit, params, max(n, int(observable) + 1),
                           lambda state: expectation_z(state, int(observable)))
    raise ValueError(f"unsupported observable {observable!r}")


def z_readout_gradients(circuit: Sequence[GateOp], params: np.ndarray, n_qubits: int) -> np.ndarray:
    """d<Z_q>/d(theta_k) for all slots and qubits, shape (P, n_qubits), by the
    per-slot shift rule; the reference the policy's gradient sweep is tested against."""
    _validate_slots(circuit, params)
    return _shift_rule(circuit, params, n_qubits, lambda state: z_readouts(state.amplitudes))


def qaoa_expectation(hamiltonian: ZZHamiltonian, gammas: np.ndarray, betas: np.ndarray) -> float:
    """<H_C> of the depth-p ansatz on |+>^n, one gate at a time: the reference
    for hqrl.warmstart.qaoa_expectation, which runs on the blocks."""
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if gammas.shape != betas.shape:
        raise ValueError("gamma and beta vectors must have equal length")
    state = init_plus_state(hamiltonian.n_qubits)
    for g, b in zip(gammas, betas):
        state = apply_cost_layer(state, hamiltonian, g)
        state = apply_mixer_layer(state, b)
    return expectation_zz(state, hamiltonian)


def norm_step(instance: VrpInstance, positions: np.ndarray, visited: np.ndarray, step_count: int,
              action: int, rule: str = "nearest", penalty: float = INVALID_PENALTY):
    """One transition from vehicle coordinates (K, 2) and the visited flags:
    (positions, visited, reward, done, vehicle), with vehicle -1 on the penalty
    step of an already-served city, which moves nothing.  The nearest vehicle
    is the argmin of the axis=1 norm (ties to the lowest index), a leg is the
    1-D norm, and the last step adds the axis=1 norms back to the depot."""
    if visited[action]:
        return positions.copy(), visited.copy(), -penalty, False, -1
    if rule == "round-robin":
        k = step_count % instance.n_vehicles
    elif rule == "nearest":
        k = int(np.argmin(np.linalg.norm(positions - instance.customers[action], axis=1)))
    else:
        raise ValueError(f"unknown vehicle rule {rule!r}")
    target = instance.customers[action]
    reward = -float(np.linalg.norm(positions[k] - target))
    positions, visited = positions.copy(), visited.copy()
    positions[k] = target
    visited[action] = True
    done = bool(visited.all())
    if done:
        reward -= float(np.linalg.norm(positions - instance.depot, axis=1).sum())
    return positions, visited, reward, done, k
