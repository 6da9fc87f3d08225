"""QAOA warm start: pre-optimize circuit angles on a problem subgraph.

The policy register is smaller than the problem, so the cost Hamiltonian is
built from the customers nearest the depot (the depot itself carries no
qubit).  Pairwise distances are normalized so the largest weight is exactly
1.0.  The ansatz runs on the policy's block kernel: a cost layer is one phase
vector over the ZZ diagonal and a mixer one RX map, as in the policy circuit.
Angles are fit with Nelder-Mead, a derivative-free local search, here a numpy
port of scipy's method that evaluates the same points in the same order (so
the package needs no scipy); the recorded history keeps only accepted
(strictly improving) costs, so it is non-increasing by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .env import VrpInstance, distance_tables, write_atomic
from .policy import N_QUBITS
from .sim import ZZHamiltonian, rotation_layer, z_generators

MAX_ITERS = 150
PATIENCE = 10
MIN_IMPROVEMENT = 1e-6


@dataclass(frozen=True)
class Subgraph:
    selected_customers: list[int]   # instance indices, ascending
    pairwise_weights: np.ndarray    # (n_sub, n_sub) symmetric, max entry 1.0


@dataclass(frozen=True)
class WarmStartAngles:
    gammas: np.ndarray
    betas: np.ndarray
    final_cost: float
    iterations_used: int
    cost_history: list[float]


def build_subgraph(instance: VrpInstance, n_qubits: int) -> Subgraph:
    """Pick min(n_qubits, N) customers nearest the depot, ties by index."""
    if n_qubits < 1:
        raise ValueError("subgraph needs at least one qubit")
    if instance.n_customers < 1:
        raise ValueError("instance has no customers")
    n_sub = min(n_qubits, instance.n_customers)
    dax = distance_tables(instance)[1][1:]  # from each customer to [depot | customers]
    # stable sort keeps index order among exact ties
    chosen = sorted(np.argsort(dax[:, 0], kind="stable")[:n_sub].tolist())
    weights = dax[chosen][:, 1:][:, chosen]
    w_max = weights.max()
    if w_max > 0.0:
        weights = weights / w_max
    return Subgraph(chosen, weights)


def build_cost_hamiltonian(subgraph: Subgraph) -> ZZHamiltonian:
    """One ZZ term per customer pair, weighted by normalized distance, on one
    qubit per subgraph customer."""
    n_sub = len(subgraph.selected_customers)
    terms = [(i, j, float(subgraph.pairwise_weights[i, j]))
             for i in range(n_sub) for j in range(i + 1, n_sub)]
    return ZZHamiltonian(n_sub, terms)


def qaoa_expectation(hamiltonian: ZZHamiltonian, gammas: np.ndarray, betas: np.ndarray) -> float:
    """<H_C> of the depth-p ansatz (cost layer then mixer, p times) on |+>^n.

    With h the diagonal of H_C, a cost layer multiplies the row state by
    exp(-i gamma h) and a mixer applies the RX(2 beta) map on every qubit;
    <H_C> is |psi|^2 @ h.  At most the policy register's N_QUBITS qubits.
    """
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if gammas.shape != betas.shape:
        raise ValueError("gamma and beta vectors must have equal length")
    n = hamiltonian.n_qubits
    if not 1 <= n <= N_QUBITS:
        raise ValueError(f"hamiltonian has {n} qubits; the policy register has {N_QUBITS}")
    terms = hamiltonian.terms
    h = z_generators(n, [(i, j) for i, j, _ in terms])[:, n:] @ np.array([w for _, _, w in terms])
    psi = np.full(2**n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    for g, b in zip(gammas, betas):
        psi = (psi * np.exp(-1j * g * h)) @ rotation_layer("RX", np.full(n, 2.0 * b))
    return float(np.abs(psi) ** 2 @ h)


class _Stop(Exception):
    pass


def _nelder_mead(f, x0: np.ndarray) -> None:
    """Minimize f from x0 by Nelder-Mead (Nelder & Mead 1965) until the simplex
    collapses (vertices within 1e-10, values within 1e-12) or f raises.

    A port of scipy 1.17's non-adaptive, unbounded method that evaluates f at
    the same points in the same order: x0 again, x0 with one coordinate scaled
    by 1.05 (a zero set to 0.00025) per vertex, then reflection 1, expansion 2,
    contraction 1/2 and shrink 1/2.
    """
    n = len(x0)
    sim = np.array([x0] * (n + 1), dtype=float)
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(x) for x in sim])
    ind = np.argsort(fsim)  # scipy sorts the first simplex twice, and argsort need not be stable
    sim, fsim = sim[ind], fsim[ind]
    while True:
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-10
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-12):
            return
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])


def optimize_angles(hamiltonian: ZZHamiltonian, p: int, max_iters: int = MAX_ITERS,
                    seed: int = 0) -> WarmStartAngles:
    """Minimize the QAOA expectation from seeded-uniform initial angles.

    Iterations count objective evaluations.  Stops at the budget, or once the
    last 10 accepted steps each improved by less than 1e-6.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = np.random.default_rng(seed)
    x0 = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, p), rng.uniform(0.0, np.pi, p)])

    history: list[float] = []
    improvements: list[float] = []
    best_x = x0.copy()
    best = float("inf")
    nfev = 0

    def objective(x: np.ndarray) -> float:
        nonlocal best, best_x, nfev
        if nfev >= max_iters:
            raise _Stop
        nfev += 1
        cost = qaoa_expectation(hamiltonian, x[:p], x[p:])
        if cost < best:
            if np.isfinite(best):
                improvements.append(best - cost)
            best = cost
            best_x = x.copy()
            history.append(cost)
            if len(improvements) >= PATIENCE and max(improvements[-PATIENCE:]) < MIN_IMPROVEMENT:
                raise _Stop
        return cost

    try:
        objective(x0)
        if max_iters > 1:
            _nelder_mead(objective, x0)
    except _Stop:
        pass
    return WarmStartAngles(best_x[:p].copy(), best_x[p:].copy(), best, nfev, history)


def export_warm_start(angles: WarmStartAngles, params):
    """Copy (gamma_l, beta_l) into the policy's QAOA slots, layer by layer."""
    n_layers = params.qaoa_angles.shape[0]
    if len(angles.gammas) != n_layers:
        raise ValueError(f"warm start has p={len(angles.gammas)} but the policy has "
                         f"{n_layers} layers")
    stacked = np.column_stack([angles.gammas, angles.betas])
    return replace(params, qaoa_angles=stacked)


def run_warmstart(instance: VrpInstance, n_qubits: int, p: int,
                  max_iters: int = MAX_ITERS, seed: int = 0) -> tuple[WarmStartAngles, Subgraph]:
    subgraph = build_subgraph(instance, n_qubits)
    hamiltonian = build_cost_hamiltonian(subgraph)
    return optimize_angles(hamiltonian, p, max_iters, seed), subgraph


def warmstart_to_json(angles: WarmStartAngles, subgraph: Subgraph, seed: int) -> dict:
    return {
        "p": len(angles.gammas),
        "gammas": [float(g) for g in angles.gammas],
        "betas": [float(b) for b in angles.betas],
        "final_cost": float(angles.final_cost),
        "iterations_used": angles.iterations_used,
        "cost_history": [float(c) for c in angles.cost_history],
        "seed": seed,
        "subgraph_indices": list(subgraph.selected_customers),
    }


def save_warmstart(angles: WarmStartAngles, subgraph: Subgraph, seed: int, path: str | Path) -> None:
    write_atomic(path, json.dumps(warmstart_to_json(angles, subgraph, seed), indent=2) + "\n")
