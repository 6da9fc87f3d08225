"""Quantum-circuit policy with a classical encoder, head and value baseline.

The circuit is fixed at 4 qubits and 2 layers no matter how many customers
the instance has.  A flat observation is squashed to RY data-loading angles,
then each layer applies a trainable RY/RZ rotation block, a cost layer over
the warm-start Hamiltonian scaled by gamma_l, and a mixer scaled by beta_l.
Per-qubit <Z> readouts feed a linear head whose masked softmax is the action
distribution.

After the data layer each layer is three blocks of commuting gates: RY and RX
(each a 16x16 Kronecker product) around RZ and RZZ (one phase vector).  Their
product is V(theta), built once per episode; each step's forward pass, the data
layer's product state times V, runs once and the gradient pass reads its record.
Circuit-angle gradients are the exact pi/2 shift rule, for a whole episode by
one backward sweep over the blocks, chained to shared angles analytically.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .sim import (GateOp, ZZHamiltonian, _z_sign_matrix, pauli_rows, rotation_layer,
                  ry_product_state, z_generators, z_readouts)

N_QUBITS = 4
N_LAYERS = 2
VALUE_HIDDEN = 32

# The classical encoder and head start deterministic: a fixed random
# projection feeds the circuit and a +/-1 bit-code readout gives the four
# <Z> values authority over every logit.  At the slow classical learning
# rate these parts move little over a run, so the circuit angles (the only
# per-seed draws besides the value net) carry the learning, and paired runs
# of two methods differ in nothing but their angle initialization.
ENCODER_SCALE = 0.3
ENCODER_SEED = 1234567
HEAD_SCALE = 0.5
ANGLE_SCALE = 0.1

QUANTUM_GROUPS = ("rotation_angles", "qaoa_angles")
# Rows vec(P_q^T): one product with B's entries gives tr(P_q B) for every qubit
_PAULI_ROWS = {kind: pauli_rows(kind, N_QUBITS) for kind in ("X", "Y")}
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class PolicyParams:
    encoder_w: np.ndarray       # (Q, D)
    encoder_b: np.ndarray       # (Q,)
    rotation_angles: np.ndarray # (L, Q, 2) -> RY, RZ per layer and qubit
    qaoa_angles: np.ndarray     # (L, 2)   -> gamma_l, beta_l
    head_w: np.ndarray          # (A, Q)
    head_b: np.ndarray          # (A,)

    @property
    def n_actions(self) -> int:
        return self.head_w.shape[0]


@dataclass(frozen=True)
class ValueParams:
    w1: np.ndarray  # (H, D)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H,)
    b2: np.ndarray  # ()


@dataclass(frozen=True)
class ActionDistribution:
    probabilities: np.ndarray


def action_codes(n_actions: int, n_qubits: int) -> np.ndarray:
    """+/-1 matrix whose row a is the bit pattern of a modulo 2**n_qubits.

    Rows repeat once n_actions exceeds 2**n_qubits; the trainable head and
    the state-dependent readouts are what separates code-sharing actions.
    """
    rows = np.empty((n_actions, n_qubits))
    for a in range(n_actions):
        for q in range(n_qubits):
            rows[a, q] = 1.0 if (a >> q) & 1 else -1.0
    return rows


def init_policy_params(obs_dim: int, n_actions: int, rng: np.random.Generator) -> PolicyParams:
    """Seeded init; the QAOA angles drawn here are the vanilla baseline's
    random scheme and get overwritten when a warm start is exported."""
    fixed = np.random.default_rng(ENCODER_SEED)
    return PolicyParams(
        encoder_w=fixed.normal(0.0, ENCODER_SCALE, (N_QUBITS, obs_dim)),
        encoder_b=np.zeros(N_QUBITS),
        rotation_angles=rng.normal(0.0, ANGLE_SCALE, (N_LAYERS, N_QUBITS, 2)),
        qaoa_angles=rng.normal(0.0, ANGLE_SCALE, (N_LAYERS, 2)),
        head_w=HEAD_SCALE * action_codes(n_actions, N_QUBITS),
        head_b=np.zeros(n_actions),
    )


def init_value_params(obs_dim: int, rng: np.random.Generator) -> ValueParams:
    return ValueParams(
        w1=rng.normal(0.0, 0.1, (VALUE_HIDDEN, obs_dim)),
        b1=np.zeros(VALUE_HIDDEN),
        w2=rng.normal(0.0, 0.1, VALUE_HIDDEN),
        b2=np.zeros(()),
    )


def encode_observation(state_vec: np.ndarray, params: PolicyParams) -> np.ndarray:
    """Data-loading angles tanh(W s + b) * pi, each strictly inside (-pi, pi)."""
    if state_vec.shape[0] != params.encoder_w.shape[1]:
        raise ValueError(f"observation dim {state_vec.shape[0]} does not match "
                         f"encoder dim {params.encoder_w.shape[1]}")
    return np.pi * np.tanh(params.encoder_w @ state_vec + params.encoder_b)


def _layer_angles(params: PolicyParams, h_policy: ZZHamiltonian) -> np.ndarray:
    """(L, 3Q + terms) gate angles, per layer: RY, RZ, RZZ(2 gamma_l w), RX(2 beta_l)."""
    weights = np.array([w for _, _, w in h_policy.terms])
    gamma, beta = params.qaoa_angles.T
    return np.concatenate([params.rotation_angles[:, :, 0], params.rotation_angles[:, :, 1],
                           2.0 * gamma[:, None] * weights,
                           np.repeat(2.0 * beta[:, None], N_QUBITS, axis=1)], axis=1)


def _compile(params: PolicyParams, h_policy: ZZHamiltonian):
    """The blocks after the data layer, stacked over layers (RY maps, RZ/RZZ phase
    vectors, RX maps), V(theta), their ordered product on row states, and the
    phase vectors' generators (sim.z_generators)."""
    angles = _layer_angles(params, h_policy)
    generators = z_generators(N_QUBITS, [(i, j) for i, j, _ in h_policy.terms])
    blocks = (rotation_layer("RY", angles[:, :N_QUBITS]),
              np.exp(-0.5j * (angles[:, N_QUBITS:-N_QUBITS] @ generators.T)),
              rotation_layer("RX", angles[:, -N_QUBITS:]))
    v = np.eye(2**N_QUBITS)
    for ry, phases, rx in zip(*blocks):
        v = (v @ ry * phases) @ rx
    return blocks, v, generators


def compile_policy(params: PolicyParams, h_policy: ZZHamiltonian) -> np.ndarray:
    """V(theta): every gate after the data layer as one matrix on row states."""
    return _compile(params, h_policy)[1]


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Probabilities over valid entries only; masked-out entries are exactly 0."""
    mask = np.asarray(mask, dtype=bool)
    valid = logits[mask]
    if valid.size == 0:
        raise ValueError("mask leaves no valid action")
    weights = np.exp(valid - valid.max())
    probs = np.zeros(logits.shape)
    probs[mask] = weights / weights.sum()
    return probs


def forward_step(state_vec: np.ndarray, params: PolicyParams, v: np.ndarray, mask: np.ndarray):
    """One observation through the policy with V(theta) from compile_policy: (data
    angles, product state, final state, <Z> readouts, masked-softmax probabilities)."""
    data = encode_observation(state_vec, params)
    product = ry_product_state(data)
    final = product @ v
    z = z_readouts(final)
    return data, product, final, z, masked_softmax(params.head_w @ z + params.head_b, mask)


def policy_forward(state_vec: np.ndarray, params: PolicyParams, h_policy: ZZHamiltonian,
                   mask: np.ndarray) -> ActionDistribution:
    """Action distribution for one observation; masked cities get probability 0."""
    return ActionDistribution(forward_step(state_vec, params, compile_policy(params, h_policy),
                                           mask)[-1])


def sample_action(dist: ActionDistribution, rng: np.random.Generator,
                  greedy: bool = False) -> int:
    """Draw as rng.choice(p.size, p=p) draws, without its checks, or take the
    argmax (lowest index wins ties)."""
    if greedy:
        return int(np.argmax(dist.probabilities))
    p = dist.probabilities / dist.probabilities.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def value_forward(state_vec: np.ndarray, vparams: ValueParams) -> float:
    """Scalar state-value estimate from the tanh MLP baseline."""
    if state_vec.shape[0] != vparams.w1.shape[1]:
        raise ValueError("observation dim does not match value network")
    hidden = np.tanh(vparams.w1 @ state_vec + vparams.b1)
    return float(vparams.w2 @ hidden + vparams.b2)


def _zero_grads(group: PolicyParams | ValueParams) -> dict[str, np.ndarray]:
    """Zeros shaped like every field of a parameter group, keyed by field name."""
    return {f.name: np.zeros_like(getattr(group, f.name)) for f in fields(group)}


def _sweep(data_angles: np.ndarray, states: np.ndarray, final: np.ndarray, compiled,
           readout_weights: np.ndarray):
    """Gradients of sum_t readout_weights[t] . <Z>(t) over T steps (data angles, product
    states, final states): per step for the data slots (T, Q), and summed for every
    later gate, in slot order.  With O_t = sum_q readout_weights[t, q] Z_q, gate
    exp(-i theta G / 2) before the unitary U has gradient Im tr(G B) for
    B = U^dagger (sum_t |phi_t><phi_t| O_t) U, the shift rule's exact value as
    G^2 = I.  Gates of one block commute and share B, which moves as U_b^dagger B U_b."""
    blocks, v, generators = compiled
    back = (readout_weights @ _z_sign_matrix(N_QUBITS).T) * np.conj(final)  # O_t phi_t, conj
    b = v.T @ (states.T @ back)
    grads = []
    for ry, phases, rx in reversed(list(zip(*blocks))):
        rx_grads = (_PAULI_ROWS["X"] @ b.ravel()).imag
        b = np.conj(rx) @ b @ rx.T
        z_grads = (np.diagonal(b) @ generators).imag
        b = np.conj(phases)[:, None] * b * phases
        grads.append(np.concatenate([(_PAULI_ROWS["Y"] @ b.ravel()).imag, z_grads, rx_grads]))
        b = np.conj(ry) @ b @ ry.T
    # d(psi)/d(a_q) is half the product state with a_q moved by pi
    shifted = ry_product_state(data_angles[:, None, :] + np.pi * np.eye(N_QUBITS))
    data_grads = np.einsum("tqa,ta->tq", shifted, (back @ v.T).real)
    return data_grads, np.concatenate(grads[::-1])


def reinforce_gradients(trajectory, params: PolicyParams, vparams: ValueParams,
                        h_policy: ZZHamiltonian, value_baseline: bool = True):
    """Loss gradients for one episode.

    Policy loss is -sum_t log pi(a_t|s_t) * A_t with A_t = G_t - V(s_t), the
    baseline treated as constant; value loss is mean squared (V - G_t).
    Returns (policy_grads, value_grads, policy_loss, value_loss) with grads
    keyed like the parameter fields.  All steps of the episode go through V,
    compiled once, and one backward sweep over the blocks.
    """
    compiled = _compile(params, h_policy)
    forwards = [forward_step(s, params, compiled[1], s[-params.n_actions:] == 0.0)
                for s in np.asarray(trajectory.states, dtype=float)]
    return _reinforce_gradients(trajectory, forwards, params, vparams, h_policy, compiled,
                                value_baseline)


def _reinforce_gradients(trajectory, forwards, params: PolicyParams, vparams: ValueParams,
                         h_policy: ZZHamiltonian, compiled, value_baseline: bool):
    """reinforce_gradients with the blocks and V(theta) already built (_compile) and
    every step's forward_step already taken."""
    states = np.asarray(trajectory.states, dtype=float)
    actions = np.asarray(trajectory.actions, dtype=int)
    targets = np.asarray(trajectory.normalized_returns, dtype=float)
    t_len = actions.shape[0]
    steps = np.arange(t_len)
    masks = states[:, -params.n_actions:] == 0.0
    data_angles, product, final, z, probs = map(np.array, zip(*forwards))

    if value_baseline:
        hidden = np.tanh(states @ vparams.w1.T + vparams.b1)
        err = hidden @ vparams.w2 + vparams.b2 - targets
        scale = 2.0 * err / t_len
        back = scale[:, None] * vparams.w2 * (1.0 - hidden**2)
        vg = {"w1": back.T @ states, "b1": back.sum(axis=0), "w2": scale @ hidden,
              "b2": np.array(scale.sum())}
        value_loss = float(err @ err) / t_len
        advantage = -err
    else:
        vg = _zero_grads(vparams)
        value_loss = 0.0
        advantage = targets

    policy_loss = -np.sum(np.log(probs[steps, actions]) * advantage)

    d_logits = probs.copy()  # d(policy_loss)/d(logits)
    d_logits[steps, actions] -= 1.0
    d_logits[~masks] = 0.0
    d_logits *= advantage[:, None]

    pg = _zero_grads(params)
    pg["head_w"] = d_logits.T @ z
    pg["head_b"] = d_logits.sum(axis=0)
    d_data, d_gates = _sweep(data_angles, product, final, compiled, d_logits @ params.head_w)
    layers = d_gates.reshape(N_LAYERS, -1)  # per layer: RY, RZ, RZZ, RX
    pg["rotation_angles"] = np.stack([layers[:, :N_QUBITS], layers[:, N_QUBITS:2 * N_QUBITS]], -1)
    pg["qaoa_angles"] = np.column_stack([
        2.0 * layers[:, 2 * N_QUBITS:-N_QUBITS] @ [w for _, _, w in h_policy.terms],
        2.0 * layers[:, -N_QUBITS:].sum(axis=1)])
    # data slot q loads qubit q with gate scale 1; d(pi tanh x)/dx = pi - a^2/pi
    d_pre = d_data * (np.pi - data_angles**2 / np.pi)
    pg["encoder_w"] = d_pre.T @ states
    pg["encoder_b"] = d_pre.sum(axis=0)
    return pg, vg, float(policy_loss), float(value_loss)


@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def adam_init(params: PolicyParams, vparams: ValueParams) -> AdamState:
    shapes = {**_zero_grads(params),
              **{f"value_{k}": z for k, z in _zero_grads(vparams).items()}}
    return AdamState(0, {k: z.copy() for k, z in shapes.items()},
                     {k: z.copy() for k, z in shapes.items()})


def apply_update(params: PolicyParams, vparams: ValueParams,
                 policy_grads: dict[str, np.ndarray], value_grads: dict[str, np.ndarray],
                 opt: AdamState, lr_quantum: float = 0.01, lr_classical: float = 0.001):
    """One Adam step; quantum angle groups get their own learning rate."""
    grads = {**policy_grads, **{f"value_{k}": g for k, g in value_grads.items()}}
    t = opt.step + 1
    new_m, new_v, deltas = {}, {}, {}
    for name, g in grads.items():
        m = ADAM_BETA1 * opt.m[name] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * opt.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        lr = lr_quantum if name in QUANTUM_GROUPS else lr_classical
        deltas[name] = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[name], new_v[name] = m, v

    new_params = replace(params, **{k: getattr(params, k) - deltas[k] for k in policy_grads})
    new_vparams = replace(vparams, **{k: getattr(vparams, k) - deltas[f"value_{k}"]
                                      for k in value_grads})
    return new_params, new_vparams, AdamState(t, new_m, new_v)


def policy_circuit_for_size(params: PolicyParams, h_policy: ZZHamiltonian):
    """The full circuit, one parameter slot per gate in circuit order (data-loading
    RY per qubit, then per layer RY, RZ, RZZ per term, RX), and its slot values
    at zero data angles."""
    qubits = [(q,) for q in range(N_QUBITS)]
    layer = ([("RY", t) for t in qubits] + [("RZ", t) for t in qubits]
             + [("RZZ", (i, j)) for i, j, _ in h_policy.terms] + [("RX", t) for t in qubits])
    gates = [("RY", t) for t in qubits] + layer * N_LAYERS
    circuit = tuple(GateOp(kind, targets, slot=k) for k, (kind, targets) in enumerate(gates))
    return circuit, np.concatenate([np.zeros(N_QUBITS), _layer_angles(params, h_policy).ravel()])
