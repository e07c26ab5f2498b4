import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))


@pytest.fixture
def rotated_decomposition():
    """Uniform (5, 2) decomposition and a copy whose eigenvectors are
    rotated by a seeded random orthogonal matrix inside each repeated
    eigenvalue: the same eigenspaces in a different basis."""
    from lorentzflow.sep import SpectralDecomposition, uniform_decomposition

    dec = uniform_decomposition(5, 2)
    rng = np.random.default_rng(91)
    lam = dec.eigenvalues
    vectors = dec.vectors.copy()
    start = 0
    while start < dec.size:
        stop = start + 1
        while stop < dec.size and abs(lam[stop] - lam[start]) < 1e-9:
            stop += 1
        q, _ = np.linalg.qr(rng.standard_normal((stop - start, stop - start)))
        vectors[:, start:stop] = vectors[:, start:stop] @ q
        start = stop
    return dec, SpectralDecomposition(dec.basis, lam, vectors, dec.rates)
