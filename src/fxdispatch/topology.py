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

from dataclasses import dataclass
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
    computed phi2 above any such tolerance.
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
    def spectral_summary(self) -> SpectralSummary:
        """L's ascending eigenvalues (jacobi_eigenvalues), formed once. Unlike
        spectrum(), it does not refuse a graph whose phi2 is near 0."""
        return SpectralSummary(eigenvalues=tuple(float(e) for e in jacobi_eigenvalues(self.L)))


@dataclass(frozen=True)
class SpectralSummary:
    """Sorted Laplacian eigenvalues; the algebraic connectivity phi2, the
    second of them (0.0 for one node), is computed from them."""

    eigenvalues: tuple

    @property
    def phi2(self) -> float:
        return self.eigenvalues[1] if len(self.eigenvalues) > 1 else 0.0


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
    """The full ascending Laplacian spectrum, top.spectral_summary.

    Raises AssumptionViolation when the second eigenvalue is numerically
    zero, which for a valid Laplacian means a disconnected graph.
    """
    summary = top.spectral_summary
    if top.n > 1 and summary.phi2 <= 1e-10:
        raise AssumptionViolation(f"graph is numerically disconnected (phi2={summary.phi2:.3e})")
    return summary
