"""Local communication graph: weighted undirected topology and its Laplacian spectrum.

The dispatch algorithm uses a two-layer structure. The global layer
(every agent reads the full power vector, needed for the loss gradients)
is represented implicitly. This module models the local layer over which
marginal costs and auxiliary states are exchanged: a connected weighted
undirected graph, its Laplacian, and the Laplacian eigenvalues, of which
the second-smallest (algebraic connectivity) enters the settling-time
bound. A LocalTopology forms its Laplacian once and its spectrum once.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .grid_model import AssumptionViolation, ConfigurationError, _check_count


class LocalTopology:
    """Weighted undirected connected graph on nodes 0..n-1, with its
    Laplacian L = D - A (row sums zero, off-diagonal -a_ij), read-only and
    formed when first read.

    n >= 1 and the endpoints i, j >= 0 of the edges (i, j, weight) are
    integers (ValueError naming the field otherwise, as for 1.5 or True), the
    weights positive, and there are no self-loops. Connectivity is enforced
    at construction (AssumptionViolation) by a search, not by phi2 > tol:
    with weights of 1e6 and more, L of a graph of two components can have a
    computed phi2 (6e-8) above an absolute tolerance such as 1e-10.
    """

    def __init__(self, n: int, edges):
        _check_count("node count", n, 1)
        norm_edges = []
        for i, j, w in edges:
            _check_count("edge endpoint", i, 0)
            _check_count("edge endpoint", j, 0)
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise ConfigurationError(f"self-loop at node {i}")
            if not (i < n and j < n):
                raise ConfigurationError(f"edge ({i},{j}) outside node range 0..{n - 1}")
            if not 0 < w < np.inf:
                raise ConfigurationError(f"edge ({i},{j}) weight must be finite and > 0, got {w}")
            norm_edges.append((min(i, j), max(i, j), w))
        self.n = n
        self.edges = tuple(sorted(norm_edges))
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen, frontier = {0}, {0}  # breadth-first search from node 0
        while frontier:
            frontier = {v for u in frontier for v in adj[u]} - seen
            seen |= frontier
        if len(seen) < n:
            raise AssumptionViolation("local topology must be connected")

    @cached_property
    def L(self) -> np.ndarray:
        """The Laplacian, formed once."""
        A = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            A[i, j] += w
            A[j, i] += w
        L = np.diag(A.sum(axis=1)) - A
        L.flags.writeable = False
        return L

    @cached_property
    def eigenvalues(self) -> tuple:
        """L's ascending eigenvalues (jacobi_eigenvalues), formed once."""
        return tuple(float(e) for e in jacobi_eigenvalues(self.L))

    @property
    def phi2(self) -> float:
        """The algebraic connectivity, the second eigenvalue (0.0 for one
        node). Unlike spectrum(), it does not refuse a phi2 near 0."""
        return self.eigenvalues[1] if self.n > 1 else 0.0


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


def spectrum(top: LocalTopology) -> float:
    """The algebraic connectivity top.phi2, refused (AssumptionViolation)
    where phi2 <= n * eps * lambda_max, the eigensolver's roundoff: such a
    phi2 does not tell a connected graph from a disconnected one.
    perfbench/spans.py patches this name in topology and cli.
    """
    phi2 = top.phi2
    if top.n > 1 and phi2 <= top.n * np.finfo(float).eps * top.eigenvalues[-1]:
        raise AssumptionViolation(f"graph is numerically disconnected (phi2={phi2:.3e})")
    return phi2
