import numpy as np
import pytest

from fxdispatch import (
    AssumptionViolation,
    ConfigurationError,
    LocalTopology,
    check_connected,
    laplacian,
    path_topology,
    spectrum,
)
from fxdispatch.topology import jacobi_eigenvalues


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


class TestLaplacian:
    def test_two_node(self):
        L = laplacian(path_topology(2))
        assert np.array_equal(L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_path_four(self):
        L = laplacian(path_topology(4))
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
            L = laplacian(LocalTopology(n, edges + extra))
            assert np.max(np.abs(L.sum(axis=1))) <= 1e-12
            assert np.array_equal(L, L.T)

    def test_relabeling_permutes(self):
        top = LocalTopology(3, [(0, 1, 2.0), (1, 2, 3.0)])
        relabeled = LocalTopology(3, [(2, 1, 2.0), (1, 0, 3.0)])
        perm = [2, 1, 0]
        assert np.array_equal(laplacian(relabeled), laplacian(top)[np.ix_(perm, perm)])


class TestSpectrum:
    def test_path_four_connectivity(self):
        # closed form: 2 - 2 cos(pi/4) = 2 - sqrt(2)
        assert spectrum(path_topology(4)).phi2 == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-10)

    def test_reference_local_layer(self, ref_top):
        assert spectrum(ref_top).phi2 == pytest.approx(0.5858, abs=1e-4)

    def test_complete_graph(self):
        k4 = LocalTopology(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
        assert spectrum(k4).eigenvalues == pytest.approx((0.0, 4.0, 4.0, 4.0), abs=1e-10)

    def test_zero_eigenvalue_and_psd(self):
        s = spectrum(path_topology(6))
        assert abs(s.eigenvalues[0]) <= 1e-10
        assert min(s.eigenvalues) >= -1e-10

    def test_one_node_has_phi2_zero(self):
        s = spectrum(LocalTopology(1, []))
        assert s.eigenvalues == (0.0,) and s.phi2 == 0.0

    def test_disconnected_raises(self):
        # connected, but its second eigenvalue is numerically zero
        top = LocalTopology(4, [(0, 1, 1.0), (1, 2, 1e-12), (2, 3, 1.0)])
        with pytest.raises(AssumptionViolation, match="numerically disconnected"):
            spectrum(top)

    def test_matches_lapack(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            edges = [(i, i + 1, float(rng.uniform(0.1, 3.0))) for i in range(n - 1)]
            top = LocalTopology(n, edges)
            ours = np.array(spectrum(top).eigenvalues)
            lapack = np.linalg.eigvalsh(laplacian(top))
            assert np.max(np.abs(ours - lapack)) <= 1e-10


class TestConnectivity:
    def test_path_connected(self):
        assert check_connected(path_topology(5))

    def test_single_node(self):
        assert check_connected(LocalTopology(1, []))


class TestJacobiEigensolver:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
            jacobi_eigenvalues(np.zeros((2, 3)))
