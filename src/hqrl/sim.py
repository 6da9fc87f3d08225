"""Dense statevector simulation for the policy register and the QAOA warm start.

Two parts share the conventions below:
- The block kernel that training and the warm start run on.  A layer of RX
  or RY rotations is one 2^n x 2^n map (`rotation_layer`, one gather by an
  index built once per width), a layer of RZ and RZZ gates one phase vector
  over the diagonals of `z_generators`, and the data layer a real product
  state (`ry_product_state`); `z_readouts` and `pauli_rows` read states and
  gradients off them.
- A gate-by-gate simulator (`StateVector`, `GateOp`, `apply_gate`), which
  acceptance criterion 2 runs over long random gate sequences, and
  `circuit_metrics` for a gate list.

Conventions: qubit q maps to bit q of the amplitude index (qubit 0 is the
least significant bit).  All rotations use the half-angle form

    RX(t) = exp(-i t X / 2),   RY, RZ likewise,   RZZ(t) = exp(-i t Z@Z / 2),

so a cost layer applies RZZ(2*gamma*w) per weighted ZZ term and a mixer
layer applies RX(2*beta) per qubit.  Every generator squares to the
identity, which keeps the pi/2 parameter-shift rule exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

MAX_QUBITS = 20
GATE_KINDS = ("H", "RX", "RY", "RZ", "CNOT", "RZZ")
_PARAMETRIC = ("RX", "RY", "RZ", "RZZ")

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)


@dataclass(frozen=True)
class StateVector:
    """Immutable wrapper around a normalized complex amplitude vector."""

    n_qubits: int
    amplitudes: np.ndarray

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass(frozen=True)
class GateOp:
    """One gate: fixed angle, or a slot index into a parameter vector."""

    kind: str
    targets: tuple[int, ...]
    angle: float | None = None
    slot: int | None = None


@dataclass
class ZZHamiltonian:
    """Weighted sum of two-body ZZ terms, sum_k w_k Z_i Z_j with i < j."""

    n_qubits: int
    terms: list[tuple[int, int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for i, j, w in self.terms:
            if not (0 <= i < j < self.n_qubits):
                raise ValueError(f"bad ZZ term ({i}, {j}) for {self.n_qubits} qubits")
            if not (0.0 <= w <= 1.0):
                raise ValueError(f"term weight {w} outside [0, 1]")


def init_plus_state(n_qubits: int) -> StateVector:
    """Uniform superposition |+>^n, every amplitude 2^(-n/2)."""
    _check_width(n_qubits)
    amps = np.full(2**n_qubits, 2.0 ** (-n_qubits / 2.0), dtype=np.complex128)
    return StateVector(n_qubits, amps)


def _check_width(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


def _check_normalized(amps: np.ndarray) -> None:
    norm = np.sum(np.abs(amps) ** 2)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized (|psi|^2 = {norm})")


def _rotation_matrix(kind: str, angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    if kind == "RX":
        mat = np.array([[c, -1j * s], [-1j * s, c]])
    elif kind == "RY":
        mat = np.array([[c, -s], [s, c]])
    elif kind == "RZ":
        mat = np.array([[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]])
    else:
        raise ValueError(f"unsupported rotation kind {kind!r}")
    return mat


@lru_cache(maxsize=256)
def _pair_parity(n: int, i: int, j: int) -> np.ndarray:
    idx = np.arange(2**n)
    parity = ((idx >> i) ^ (idx >> j)) & 1
    parity.setflags(write=False)
    return parity


def _apply(amps: np.ndarray, kind: str, targets: tuple[int, ...], angle: float | None, n: int) -> None:
    """Apply one gate in place along the last axis of a C-contiguous (..., 2**n)
    array, a single state or a stack of them."""
    if kind in ("RX", "RY", "RZ", "H"):
        mat = _H if kind == "H" else _rotation_matrix(kind, angle)
        # Expose bit q as its own axis (stride 2^q) and mix the halves; any
        # leading axes fold into the first one.
        view = amps.reshape(-1, 2, 2**targets[0])
        a0 = view[:, 0, :].copy()
        a1 = view[:, 1, :]
        view[:, 0, :] = mat[0, 0] * a0 + mat[0, 1] * a1
        view[:, 1, :] = mat[1, 0] * a0 + mat[1, 1] * a1
    elif kind == "RZZ":
        phase_same = np.exp(-0.5j * angle)
        amps *= np.where(_pair_parity(n, targets[0], targets[1]), np.conj(phase_same), phase_same)
    elif kind == "CNOT":
        idx = np.arange(2**n)
        sel = idx[(idx >> targets[0]) & 1 == 1]
        flipped = sel ^ (1 << targets[1])
        amps[..., sel], amps[..., flipped] = amps[..., flipped], amps[..., sel]
    else:
        raise ValueError(f"unsupported gate kind {kind!r}")


def _check_gate(gate: GateOp, n: int) -> None:
    if gate.kind not in GATE_KINDS:
        raise ValueError(f"unsupported gate kind {gate.kind!r}")
    arity = 2 if gate.kind in ("CNOT", "RZZ") else 1
    if len(gate.targets) != arity:
        raise ValueError(f"{gate.kind} expects {arity} target(s), got {gate.targets}")
    for q in gate.targets:
        if not 0 <= q < n:
            raise ValueError(f"target qubit {q} out of range for {n} qubits")
    if len(set(gate.targets)) != len(gate.targets):
        raise ValueError(f"duplicate targets in {gate.targets}")
    if gate.kind in _PARAMETRIC:
        if gate.angle is None and gate.slot is None:
            raise ValueError(f"{gate.kind} needs an angle or a parameter slot")
    elif gate.slot is not None:
        raise ValueError(f"{gate.kind} cannot carry a parameter slot")


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one gate and return the evolved state (input left untouched)."""
    _check_gate(gate, state.n_qubits)
    if gate.slot is not None and gate.angle is None:
        raise ValueError("gate has an unbound parameter slot; give it an angle")
    _check_normalized(state.amplitudes)
    amps = state.amplitudes.copy()
    _apply(amps, gate.kind, gate.targets, gate.angle, state.n_qubits)
    return StateVector(state.n_qubits, amps)


@lru_cache(maxsize=64)
def _z_sign_matrix(n: int) -> np.ndarray:
    """(2^n, n) matrix of Z eigenvalue signs, column q for qubit q."""
    idx = np.arange(2**n)
    signs = np.column_stack([1.0 - 2.0 * ((idx >> q) & 1) for q in range(n)])
    signs.setflags(write=False)
    return signs


def z_readouts(amps: np.ndarray) -> np.ndarray:
    """<Z_q> for every qubit of every state in a (..., 2**n) array: shape (..., n)."""
    return (np.abs(amps) ** 2) @ _z_sign_matrix(int(amps.shape[-1]).bit_length() - 1)


def ry_product_state(angles: np.ndarray) -> np.ndarray:
    """RY(angles[q]) on each qubit q of |0...0>, as real (..., 2**n) amplitudes:
    amplitude b is the product over q of sin(a_q/2) if bit q of b is set,
    else cos(a_q/2)."""
    half = 0.5 * np.asarray(angles, dtype=float)
    bit_set = _z_sign_matrix(half.shape[-1]) < 0.0  # (2**n, n): bit q of each index
    return np.prod(np.where(bit_set, np.sin(half)[..., None, :], np.cos(half)[..., None, :]),
                   axis=-1)


@lru_cache(maxsize=64)
def _rotation_index(n: int) -> np.ndarray:
    """(n, 2^n, 2^n) gather index of rotation_layer: entry [q, a, b] is 4q + 2 *
    (bit q of b) + bit q of a, the place of R_q[bit q of b, bit q of a]."""
    bits = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).T  # (n, 2**n)
    index = 4 * np.arange(n)[:, None, None] + 2 * bits[:, None, :] + bits[:, :, None]
    index.setflags(write=False)
    return index


def rotation_layer(kind: str, angles: np.ndarray) -> np.ndarray:
    """RX or RY(angles[..., q]) on each qubit q as one map M on row states (psi
    evolves to psi @ M), a stack of maps for leading axes: M[a, b] is the product
    over q of R_q[bit q of b, bit q of a], one gather over the bit table."""
    half = 0.5 * np.asarray(angles, dtype=float)
    c, s = np.cos(half), np.sin(half)
    rot = np.stack({"RX": [c, -1j * s, -1j * s, c], "RY": [c, -s, s, c]}[kind], axis=-1,
                   dtype=np.complex128)  # (..., n, 4): rows of each 2x2 in turn
    n = half.shape[-1]
    return rot.reshape(*half.shape[:-1], 4 * n)[..., _rotation_index(n)].prod(axis=-3)


def z_generators(n: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """(2^n, n + len(pairs)) diagonals of Z_q per qubit, then of Z_i Z_j per pair:
    RZ/RZZ gates with angles t act together as exp(-i/2 * generators @ t)."""
    signs = _z_sign_matrix(n)
    return np.column_stack([signs] + [signs[:, i] * signs[:, j] for i, j in pairs])


def pauli_rows(kind: str, n: int) -> np.ndarray:
    """Rows vec(P_q^T) for P = X or Y on each qubit q: rows @ b.ravel() is tr(P_q b)
    for every q.  X_q[a, a ^ 2**q] = 1 and Y_q[a, a ^ 2**q] = -i * sign_q(a)."""
    idx = np.arange(2**n)
    rows = np.zeros((n, 2**n, 2**n), dtype=np.complex128)
    for q in range(n):
        rows[q, idx ^ (1 << q), idx] = 1.0 if kind == "X" else -1j * _z_sign_matrix(n)[:, q]
    return rows.reshape(n, -1)


@dataclass(frozen=True)
class CircuitMetrics:
    depth: int
    qubit_count: int
    gate_count: int


def circuit_metrics(circuit: Sequence[GateOp]) -> CircuitMetrics:
    """Depth is the longest dependency chain through shared qubits."""
    if not circuit:
        return CircuitMetrics(0, 0, 0)
    frontier: dict[int, int] = {}
    for gate in circuit:
        level = max((frontier.get(q, 0) for q in gate.targets), default=0) + 1
        for q in gate.targets:
            frontier[q] = level
    return CircuitMetrics(max(frontier.values()), max(frontier) + 1, len(circuit))
