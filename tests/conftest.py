"""Shared fixtures."""
import numpy as np
import pytest

from flagcones.reps import _gram_inverse, casimir_matrix


@pytest.fixture
def dense_casimir_tensor():
    """The reference Delta(C) = C (x) 1 + 1 (x) C + 2 sum_ab (G^-1)_ab B_a (x) B_b as a dense d^2 x d^2 matrix."""
    def build(rep):
        d, I = rep.dim, np.eye(rep.dim)
        C, A = casimir_matrix(rep), np.asarray(rep.algebra_rep, dtype=complex)
        cross = np.einsum("ab,aij,bkl->ikjl", np.asarray(_gram_inverse(rep), dtype=complex), A, A)
        return np.kron(C, I) + np.kron(I, C) + 2 * cross.reshape(d * d, d * d)

    return build
