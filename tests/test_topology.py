import numpy as np
import pytest

from fxdispatch import (
    AssumptionViolation,
    ConfigurationError,
    LocalTopology,
    spectrum,
)
from fxdispatch import topology
from fxdispatch.topology import jacobi_eigenvalues
from tests.conftest import path_topology


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ConfigurationError):
            LocalTopology(2, [(0, 0, 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ConfigurationError):
            LocalTopology(2, [(0, 1, 0.0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            LocalTopology(2, [(0, 2, 1.0)])

    def test_rejects_disconnected(self):
        with pytest.raises(AssumptionViolation):
            LocalTopology(4, [(0, 1, 1.0), (2, 3, 1.0)])

    @pytest.mark.parametrize("n, edges, message", [
        (2, [(0, 1.5, 1.0)], "edge endpoint must be an integer, got 1.5"),
        (2, [(True, 1, 1.0)], "edge endpoint must be an integer, got True"),
        (2, [(0, -1, 1.0)], "edge endpoint must be >= 0"),
        (2.5, [(0, 1, 1.0)], "node count must be an integer, got 2.5"),
        (True, [], "node count must be an integer, got True"),
        (0, [], "node count must be >= 1"),
    ], ids=["fractional-endpoint", "boolean-endpoint", "negative-endpoint", "fractional-n", "boolean-n", "zero-n"])
    def test_rejects_counts_that_are_not_integers(self, n, edges, message):
        # an endpoint of 1.5 is refused, not truncated to the edge (0, 1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            LocalTopology(n, edges)

    def test_accepts_numpy_integers(self):
        top = LocalTopology(np.int64(2), [(np.int64(1), np.int32(0), 1.0)])
        assert top.edges == ((0, 1, 1.0),) and all(type(v) is int for v in top.edges[0][:2])


class TestLaplacian:
    def test_two_node(self):
        L = path_topology(2).L
        assert np.array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_path_four(self):
        L = path_topology(4).L
        assert np.array_equal(np.diag(L), [1.0, 2.0, 2.0, 1.0])
        assert L[0, 1] == L[1, 2] == L[2, 3] == -1.0
        assert L[0, 2] == L[0, 3] == L[1, 3] == 0.0

    def test_row_sums_and_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            edges = [(i, i + 1, float(rng.uniform(0.1, 2.0))) for i in range(n - 1)]
            extra = [(int(i), int(j), float(rng.uniform(0.1, 2.0)))
                     for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
            L = LocalTopology(n, edges + extra).L
            assert np.max(np.abs(L.sum(axis=1))) <= 1e-12
            assert np.array_equal(L, L.T)

    def test_is_read_only_and_formed_once(self):
        top = path_topology(3)
        assert top.L is top.L
        with pytest.raises(ValueError, match="read-only"):
            top.L[0, 0] = 5.0

    def test_relabeling_permutes(self):
        top = LocalTopology(3, [(0, 1, 2.0), (1, 2, 3.0)])
        relabeled = LocalTopology(3, [(2, 1, 2.0), (1, 0, 3.0)])
        perm = [2, 1, 0]
        assert np.array_equal(relabeled.L, top.L[np.ix_(perm, perm)])


class TestSpectrum:
    def test_path_four_connectivity(self):
        # closed form: 2 - 2 cos(pi/4) = 2 - sqrt(2)
        assert spectrum(path_topology(4)) == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-10)

    def test_reference_local_layer(self, ref_top):
        assert spectrum(ref_top) == pytest.approx(0.5858, abs=1e-4)

    def test_complete_graph(self):
        k4 = LocalTopology(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
        assert k4.eigenvalues == pytest.approx((0.0, 4.0, 4.0, 4.0), abs=1e-10)

    def test_zero_eigenvalue_and_psd(self):
        eigenvalues = path_topology(6).eigenvalues
        assert abs(eigenvalues[0]) <= 1e-10
        assert min(eigenvalues) >= -1e-10

    def test_one_node_has_phi2_zero(self):
        top = LocalTopology(1, [])
        assert top.eigenvalues == (0.0,) and top.phi2 == 0.0 and spectrum(top) == 0.0

    def test_disconnected_raises(self):
        # connected, but its second eigenvalue, about 1e-12, is below the
        # eigensolver's roundoff 4 eps 2e6 = 1.8e-9: eigvalsh computes 0.0
        top = LocalTopology(4, [(0, 1, 1e6), (1, 2, 1e-12), (2, 3, 1e6)])
        assert top.phi2 == 0.0
        with pytest.raises(AssumptionViolation, match=r"numerically disconnected \(phi2=0\.000e\+00\)"):
            spectrum(top)

    @pytest.mark.parametrize("weights, phi2", [
        # phi2 = (2 - sqrt 2) 1e-11 against the roundoff 4 eps lambda_max = 3e-26
        ((1e-11, 1e-11, 1e-11), 5.857864376e-12),
        # phi2 = 1.000e-12 against 1.8e-15
        ((1.0, 1e-12, 1.0), 1.000044450e-12),
    ], ids=["path-of-weight-1e-11", "weak-middle-edge"])
    def test_small_phi2_above_roundoff_accepted(self, weights, phi2):
        top = LocalTopology(4, [(i, i + 1, w) for i, w in enumerate(weights)])
        assert spectrum(top) == pytest.approx(phi2, rel=1e-9)

    def test_matches_lapack(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            edges = [(i, i + 1, float(rng.uniform(0.1, 3.0))) for i in range(n - 1)]
            top = LocalTopology(n, edges)
            ours = np.array(top.eigenvalues)
            lapack = np.linalg.eigvalsh(top.L)
            assert np.max(np.abs(ours - lapack)) <= 1e-10

    def test_formed_once(self, monkeypatch):
        calls = []
        real = topology.jacobi_eigenvalues
        monkeypatch.setattr(topology, "jacobi_eigenvalues", lambda A: calls.append(1) or real(A))
        top = path_topology(4)
        assert spectrum(top) == top.phi2 == top.eigenvalues[1]
        assert top.eigenvalues is top.eigenvalues
        assert len(calls) == 1


class TestConnectivity:
    def test_path_connected(self):
        assert path_topology(5).n == 5

    def test_single_node(self):
        assert LocalTopology(1, []).n == 1

    def test_heavy_two_component_graph_refused(self):
        # a pair and a path of three: the second eigenvalue that eigvalsh
        # computes for its L is about 6e-8 (numpy 2.4), above an absolute
        # tolerance such as 1e-10 and below only spectrum()'s roundoff
        # n eps lambda_max = 3.5e-6; the search refuses it at construction
        edges = [(0, 1, 1e6), (2, 3, 1e9), (3, 4, 1.1e9)]
        with pytest.raises(AssumptionViolation, match="must be connected"):
            LocalTopology(5, edges)


class TestJacobiEigensolver:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
            jacobi_eigenvalues(np.zeros((2, 3)))
