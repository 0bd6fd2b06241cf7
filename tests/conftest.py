import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from dualrbvp import biharmonic_basis, circle_contour, classical_basis

# property tests must neither miss a deadline on a loaded machine nor draw
# different examples from one run to the next
settings.register_profile("dualrbvp", deadline=None, derandomize=True)
settings.load_profile("dualrbvp")


@pytest.fixture(scope="session")
def bih():
    return biharmonic_basis()


@pytest.fixture(scope="session")
def cls():
    return classical_basis()


@pytest.fixture(scope="session")
def unit_circle(bih):
    return circle_contour(bih, radius=1.0, nodes=512)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def random_dc(rng, size=None, scale=1.0):
    from dualrbvp import DualComplex
    shape = (size,) if size else ()
    return DualComplex(
        (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale,
        (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale,
    )
