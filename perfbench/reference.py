"""Reference computations that the benchmark checks hqrl's outputs against.

Each one is derived from the problem statement, not from hqrl's code:

- ``tour_length``: closed-tour length straight from the coordinates.
- ``exact_vrp_cost``: Held-Karp closed-tour costs over every customer
  subset, then the cheapest partition of the customers into at most K tours.
- ``qaoa_energy`` / ``ground_energy``: the depth-p QAOA energy of a ZZ cost
  Hamiltonian as dense 2^n x 2^n matrices built from Kronecker products, and
  its ground energy by enumerating every bitstring.
- ``policy_probabilities`` / ``policy_loss``: the policy circuit as one
  dense unitary, for a central finite-difference check of the circuit-angle
  gradient (``central_difference``).

Qubit q is bit q of the amplitude index, so the Kronecker product runs from
the highest qubit to qubit 0.  Only numpy is used.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


# --- routing -----------------------------------------------------------------

def tour_length(depot, customers, routes: dict[int, list[int]]) -> float:
    """Sum over vehicles of depot -> cities in order -> depot."""
    depot = tuple(map(float, depot))
    points = [tuple(map(float, c)) for c in customers]
    total = 0.0
    for cities in routes.values():
        if not cities:
            continue
        path = [depot] + [points[c] for c in cities] + [depot]
        total += sum(math.dist(a, b) for a, b in zip(path, path[1:]))
    return total


def is_partition(routes: dict[int, list[int]], n_customers: int, n_vehicles: int) -> bool:
    """Routes name vehicles 0..K-1 and visit every customer exactly once."""
    served = sorted(c for cities in routes.values() for c in cities)
    return (set(routes) <= set(range(n_vehicles))
            and served == list(range(n_customers)))


def subset_tour_costs(depot, customers) -> list[float]:
    """Held-Karp: cheapest closed tour from the depot through each subset.

    Entry ``mask`` is the shortest depot -> (every customer in mask, in any
    order) -> depot tour; entry 0 is 0.
    """
    n = len(customers)
    pts = [tuple(map(float, c)) for c in customers]
    d0 = [math.dist(tuple(map(float, depot)), p) for p in pts]
    d = [[math.dist(a, b) for b in pts] for a in pts]
    inf = math.inf
    # path[mask][j]: shortest depot -> ... -> j path visiting exactly mask.
    path = [[inf] * n for _ in range(1 << n)]
    for j in range(n):
        path[1 << j][j] = d0[j]
    for mask in range(1, 1 << n):
        row = path[mask]
        for j in range(n):
            here = row[j]
            if here == inf:
                continue
            dj = d[j]
            for k in range(n):
                if mask >> k & 1:
                    continue
                nxt = mask | 1 << k
                c = here + dj[k]
                if c < path[nxt][k]:
                    path[nxt][k] = c
    tours = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        tours[mask] = min(path[mask][j] + d0[j] for j in range(n) if mask >> j & 1)
    return tours


def exact_vrp_cost(depot, customers, n_vehicles: int) -> float:
    """Optimal total length when at most ``n_vehicles`` tours cover all customers."""
    n = len(customers)
    tours = subset_tour_costs(depot, customers)
    full = (1 << n) - 1
    best = tours[:]  # at most one tour
    for _ in range(n_vehicles - 1):
        nxt = best[:]
        for mask in range(1, full + 1):
            low = mask & -mask
            rest = mask ^ low
            # the tour holding the lowest customer is `low | sub`
            sub = rest
            while True:
                first = low | sub
                c = tours[first] + best[mask ^ first]
                if c < nxt[mask]:
                    nxt[mask] = c
                if sub == 0:
                    break
                sub = (sub - 1) & rest
        best = nxt
    return best[full]


# --- QAOA --------------------------------------------------------------------

def kron_qubits(ops: list[np.ndarray]) -> np.ndarray:
    """Tensor product with ops[q] acting on qubit q (qubit 0 least significant)."""
    return reduce(np.kron, reversed(ops))


def zz_matrix(n_qubits: int, terms) -> np.ndarray:
    """Dense sum_k w_k Z_i Z_j."""
    h = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for i, j, w in terms:
        ops = [I2] * n_qubits
        ops[i] = ops[j] = Z
        h += w * kron_qubits(ops)
    return h


def rx(theta: float) -> np.ndarray:
    return math.cos(theta / 2) * I2 - 1j * math.sin(theta / 2) * X


def ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def diagonal_evolution(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) for a diagonal H, which every Z-only Hamiltonian is."""
    diag = np.diag(h)
    if np.abs(h - np.diag(diag)).max() > 0.0:
        raise ValueError("Hamiltonian is not diagonal")
    return np.diag(np.exp(-1j * t * diag.real))


def qaoa_energy(n_qubits: int, terms, gammas, betas) -> float:
    """<H_C> after p rounds of exp(-i gamma H_C) then RX(2 beta) on every qubit,
    starting from |+>^n."""
    h = zz_matrix(n_qubits, terms)
    psi = np.full(2**n_qubits, 2.0 ** (-n_qubits / 2), dtype=complex)
    for gamma, beta in zip(gammas, betas):
        psi = diagonal_evolution(h, gamma) @ psi
        psi = kron_qubits([rx(2 * beta)] * n_qubits) @ psi
    return float(np.real(np.conj(psi) @ h @ psi))


def ground_energy(n_qubits: int, terms) -> float:
    """min over bitstrings x of sum_k w_k z_i z_j, with z_q = (-1)^(bit q of x)."""
    best = math.inf
    for x in range(2**n_qubits):
        z = [1 - 2 * (x >> q & 1) for q in range(n_qubits)]
        best = min(best, sum(w * z[i] * z[j] for i, j, w in terms))
    return best


def depot_subgraph_terms(depot, customers, n_qubits: int):
    """ZZ terms over the n_qubits customers nearest the depot (ties to the
    lower index), weighted by pairwise distance divided by the largest one."""
    pts = [tuple(map(float, c)) for c in customers]
    depot = tuple(map(float, depot))
    order = sorted(range(len(pts)), key=lambda c: (math.dist(depot, pts[c]), c))
    chosen = sorted(order[:n_qubits])
    dist = {(i, j): math.dist(pts[chosen[i]], pts[chosen[j]])
            for i in range(len(chosen)) for j in range(i + 1, len(chosen))}
    top = max(dist.values(), default=0.0)
    scale = 1.0 / top if top > 0 else 1.0
    return [(i, j, d * scale) for (i, j), d in sorted(dist.items())]


# --- policy circuit ----------------------------------------------------------

def policy_unitary(n_qubits: int, rotation_angles, qaoa_angles, terms) -> np.ndarray:
    """Everything after data loading: per layer RY and RZ on every qubit,
    exp(-i gamma H_C), then RX(2 beta) on every qubit."""
    h = zz_matrix(n_qubits, terms)
    u = np.eye(2**n_qubits, dtype=complex)
    for layer, (gamma, beta) in zip(rotation_angles, qaoa_angles):
        u = kron_qubits([ry(t) for t in layer[:, 0]]) @ u
        u = kron_qubits([rz(t) for t in layer[:, 1]]) @ u
        u = diagonal_evolution(h, gamma) @ u
        u = kron_qubits([rx(2 * beta)] * n_qubits) @ u
    return u


def policy_probabilities(obs, encoder_w, encoder_b, unitary, head_w, head_b, mask):
    """Masked softmax over head_w <Z> + head_b for RY(pi tanh(W s + b)) |0...0>."""
    n_qubits = encoder_w.shape[0]
    data = np.pi * np.tanh(encoder_w @ obs + encoder_b)
    psi = unitary @ kron_qubits([ry(t) @ np.array([1, 0], dtype=complex) for t in data])
    probs = np.abs(psi) ** 2
    bits = (np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits)) & 1
    z = probs @ (1.0 - 2.0 * bits)
    logits = head_w @ z + head_b
    out = np.zeros_like(logits)
    shifted = np.exp(logits[mask] - logits[mask].max())
    out[mask] = shifted / shifted.sum()
    return out


def value_estimate(obs, w1, b1, w2, b2) -> float:
    return float(np.tanh(w1 @ obs + b1) @ w2 + b2)


def policy_loss(states, actions, advantages, encoder_w, encoder_b, rotation_angles,
                qaoa_angles, head_w, head_b, terms) -> float:
    """-sum_t log pi(a_t | s_t) A_t, with the advantages held fixed.

    The valid actions of step t are the customers whose visited flag, the last
    n_actions entries of s_t, is still 0."""
    n_actions = head_w.shape[0]
    u = policy_unitary(encoder_w.shape[0], rotation_angles, qaoa_angles, terms)
    loss = 0.0
    for s, a, adv in zip(states, actions, advantages):
        mask = s[-n_actions:] == 0.0
        p = policy_probabilities(s, encoder_w, encoder_b, u, head_w, head_b, mask)
        loss -= math.log(p[a]) * adv
    return loss


def central_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """(f(x + h e_i) - f(x - h e_i)) / 2h for every component i."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up.flat[i] += h
        down.flat[i] -= h
        grad.flat[i] = (f(up) - f(down)) / (2 * h)
    return grad
