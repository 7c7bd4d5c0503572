import pathlib
import sys

import numpy as np
import pytest

from fxdispatch import DispatchSystem, GeneratorSpec, KronLossModel, LocalTopology

# Four-generator reference case (quadratic costs, B-loss model, demand 600 MW)
REF_B = np.array([
    [1.200, 0.286, 0.481, 0.321],
    [0.286, 1.341, 0.511, 1.251],
    [0.481, 0.511, 1.539, 1.463],
    [0.321, 1.251, 1.463, 1.612],
]) * 1e-4
REF_B0 = np.array([2.0, 1.0, 2.5, 1.5]) * 1e-3
REF_B00 = 4.0
REF_COST = [(53.0, 1.21, 0.094), (34.0, 3.47, 0.082), (45.0, 2.24, 0.086), (78.0, 2.55, 0.105)]
REF_P0 = np.array([170.0, 110.0, 140.0, 180.0])
REF_DEMAND = 600.0

# Consensus equilibrium of the reference case, frozen from the damped-Newton
# solver and independently confirmed by scipy.optimize.fsolve and by direct
# RK4 integration of the dynamics to t=200 s (agreement < 1e-5 MW).
REF_EQUILIBRIUM = np.array([164.75601311, 171.72475982, 168.5977655, 135.8317408])
REF_EQ_COST = 11080.832237274592
REF_EQ_LOSS = 40.910279226665146


def path_topology(n):
    """Unit-weight chain 0-1-...-(n-1), the reference local layer."""
    return LocalTopology(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def ring_fleet_dict(n):
    """A seeded n-generator run file on a ring; it need not pass the gates."""
    rng = np.random.default_rng(n)
    p0 = rng.uniform(10.0, 45.0, n)
    off = rng.uniform(0.0, 8e-6, (n, n))
    B = (off + off.T) / 2.0
    np.fill_diagonal(B, rng.uniform(2e-5, 4e-5, n))
    return {
        "generators": [{"a": float(rng.uniform(30.0, 80.0)), "b": float(rng.uniform(1.5, 3.5)),
                        "c": float(rng.uniform(0.05, 0.12)), "p0": float(p), "d0": float(p)} for p in p0],
        "loss": {"b_matrix": B.tolist(), "b0": rng.uniform(0.0, 2e-3, n).tolist(), "b00": 1.5},
        "topology": {"nodes": n, "edges": [[i, (i + 1) % n, 1.0] for i in range(n)]},
        "params": {"k1": 5.0, "k2": 5.0, "mu": 0.5, "nu": 2.0, "dt": 1e-3, "t_end": 0.2},
    }


def _path_fleet_dict(gens, B):
    n = len(gens)
    return {
        "generators": gens,
        "loss": {"b_matrix": B.tolist(), "b0": [0.0] * n, "b00": 0.0},
        "topology": {"nodes": n, "edges": [[i, i + 1, 1.0] for i in range(n - 1)]},
        "params": {"k1": 5.0, "k2": 5.0, "mu": 0.5, "nu": 2.0, "t_end": 2.0, "settle_window": 0.1},
    }


def two_unit_negative_delta_dict():
    """Two units with b = -700 (delta < 0) on one link that pass A1, remark 2
    and A2 (value 0.1 - 700 * 1e-4 = 0.03) while tau1 = 0.1 - 700 * 2e-4 = -0.04."""
    gen = {"a": 10.0, "b": -700.0, "c": 0.05, "p0": 100.0, "d0": 100.0}
    return _path_fleet_dict([dict(gen), dict(gen)], np.diag([1e-4, 1e-4]))


def negative_delta_fleet_dict(seed):
    """A seeded path fleet of 2-6 units with b ~ U(-800, 5), so nearly always
    delta < 0, c ~ U(0.02, 0.12), diag B ~ U(5e-5, 2e-4) and off-diagonal
    entries in [0, 1e-5]. Of seeds 0-199, 40 pass A2 with tau1 <= 0."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    off = rng.uniform(0.0, 1e-5, (n, n))
    B = (off + off.T) / 2.0
    np.fill_diagonal(B, rng.uniform(5e-5, 2e-4, n))
    gens = [{"a": 10.0, "b": float(rng.uniform(-800.0, 5.0)), "c": float(rng.uniform(0.02, 0.12)),
             "p0": 100.0, "d0": 100.0} for _ in range(n)]
    return _path_fleet_dict(gens, B)


def benchmark_workloads():
    """The benchmark's perfbench/workloads.py, imported from this checkout
    with perfbench/ on the path, as tools/fingerprint.py imports it."""
    perfbench = str(pathlib.Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import workloads

    return workloads


def benchmark_fleet_dict(seed):
    """perfbench/workloads.py's fleet_dict(seed): the benchmark's seeded
    64-unit fleet, at its t_end of 0.2 s."""
    return benchmark_workloads().fleet_dict(seed)


@pytest.fixture(scope="session")
def ref_model():
    return KronLossModel(REF_B, REF_B0, REF_B00)


@pytest.fixture(scope="session")
def ref_gens():
    return tuple(
        GeneratorSpec(a=a, b=b, c=c, p0=p, d0=p)
        for (a, b, c), p in zip(REF_COST, REF_P0)
    )


@pytest.fixture(scope="session")
def ref_top():
    return path_topology(4)


@pytest.fixture(scope="session")
def ref_system(ref_gens, ref_model, ref_top):
    return DispatchSystem(gens=ref_gens, loss=ref_model, top=ref_top)
