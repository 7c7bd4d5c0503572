"""Eigenvalues of the small dense symmetric matrices the analysis meets.

LAPACK (numpy.linalg.eigvalsh) does the work; this module adds only the
shape and exact-symmetry checks that eigvalsh, which reads one triangle,
does not make.
"""

from __future__ import annotations

import numpy as np


def jacobi_eigenvalues(A) -> np.ndarray:
    """Ascending eigenvalues of a square, exactly symmetric matrix."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.array_equal(A, A.T):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(A)
