"""Local communication graph: weighted undirected topology and its Laplacian spectrum.

The dispatch algorithm uses a two-layer structure. The global layer
(every agent reads the full power vector, needed for the loss gradients)
is represented implicitly. This module models the local layer over which
marginal costs and auxiliary states are exchanged: a connected weighted
undirected graph, its Laplacian, and the Laplacian eigenvalues, of which
the second-smallest (algebraic connectivity) enters the settling-time
bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid_model import AssumptionViolation, ConfigurationError


class LocalTopology:
    """Weighted undirected connected graph on nodes 0..n-1.

    Edges are (i, j, weight) with positive weights and no self-loops;
    connectivity is enforced at construction (AssumptionViolation).
    """

    def __init__(self, n: int, edges):
        if n < 1:
            raise ConfigurationError("need at least one node")
        norm_edges = []
        for i, j, w in edges:
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise ConfigurationError(f"self-loop at node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ConfigurationError(f"edge ({i},{j}) outside node range 0..{n - 1}")
            if not 0 < w < np.inf:
                raise ConfigurationError(f"edge ({i},{j}) weight must be finite and > 0, got {w}")
            norm_edges.append((min(i, j), max(i, j), w))
        self.n = n
        self.edges = tuple(sorted(norm_edges))
        if not check_connected(self):
            raise AssumptionViolation("local topology must be connected")

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            A[i, j] += w
            A[j, i] += w
        return A


@dataclass(frozen=True)
class SpectralSummary:
    """Sorted Laplacian eigenvalues; the algebraic connectivity phi2, the
    second of them (0.0 for one node), is computed from them."""

    eigenvalues: tuple

    @property
    def phi2(self) -> float:
        return self.eigenvalues[1] if len(self.eigenvalues) > 1 else 0.0


def check_connected(top: LocalTopology) -> bool:
    """Breadth-first reachability from node 0."""
    adj: list[list[int]] = [[] for _ in range(top.n)]
    for i, j, _ in top.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == top.n


def laplacian(top: LocalTopology) -> np.ndarray:
    """L = D - A: row sums zero, off-diagonal -a_ij, symmetric PSD."""
    A = top.adjacency()
    return np.diag(A.sum(axis=1)) - A


def jacobi_eigenvalues(A) -> np.ndarray:
    """Ascending eigenvalues of a square, exactly symmetric matrix.

    numpy.linalg.eigvalsh (LAPACK) does the work; it reads one triangle, so
    the shape and symmetry checks are made here. analysis imports it by
    name, and perfbench/spans.py patches it in both modules.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.array_equal(A, A.T):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(A)


def spectrum(top: LocalTopology) -> SpectralSummary:
    """Full ascending Laplacian spectrum (LAPACK, via numpy.linalg.eigvalsh).

    Raises AssumptionViolation when the second eigenvalue is numerically
    zero, which for a valid Laplacian means a disconnected graph.
    """
    eig = jacobi_eigenvalues(laplacian(top))
    if top.n > 1 and eig[1] <= 1e-10:
        raise AssumptionViolation(f"graph is numerically disconnected (phi2={eig[1]:.3e})")
    return SpectralSummary(eigenvalues=tuple(float(e) for e in eig))


def path_topology(n: int) -> LocalTopology:
    """Unit-weight chain 0-1-...-(n-1), the reference local layer."""
    return LocalTopology(n, [(i, i + 1, 1.0) for i in range(n - 1)])
