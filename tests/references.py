"""Reference constructions the tests check the package against."""

import numpy as np

from qmsgap.linalg import kron
from qmsgap.qms import DensityMatrix


def gns_gram_matrix(rho: DensityMatrix) -> np.ndarray:
    """Gram matrix of <x, y> = tr(x^H y rho): right multiplication by rho."""
    return kron(rho.rho.T, np.eye(rho.dim, dtype=complex))
