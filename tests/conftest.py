import numpy as np
import pytest

from qinfo.rng import stream


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return stream(20240811, "tests")


def bell_state() -> np.ndarray:
    return np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def random_kraus(din: int, dout: int, r: int, rng) -> list[np.ndarray]:
    """r contiguous dout x din Kraus operators sliced from a Haar-random isometry."""
    g = rng.normal(size=(dout * r, din)) + 1j * rng.normal(size=(dout * r, din))
    iso, _ = np.linalg.qr(g)
    return [np.ascontiguousarray(iso[i * dout:(i + 1) * dout]) for i in range(r)]
