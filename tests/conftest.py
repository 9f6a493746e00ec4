import numpy as np
import pytest

from optiqft import ExperimentConfig

TWO_PI = 2.0 * np.pi

#: 8 uniform phases theta: products of fringe harmonics 0-2 sum exactly
#: over them, so they sample a fringe projection without loss (the oracle
#: of the fit's staged round, which samples it at 5)
EIGHT_THETA = TWO_PI * np.arange(8) / 8


def random_config(rng: np.random.Generator) -> ExperimentConfig:
    """Config with random split angle, transmissions and incidental phases."""
    return ExperimentConfig(
        chi0=rng.uniform(0.5, 1.1),
        t_ps=rng.uniform(0.8, 1.0),
        t_phi=rng.uniform(0.8, 1.0),
        t_2phi=rng.uniform(0.8, 1.0),
        alpha=tuple(rng.uniform(0.0, TWO_PI, 4)),
        theta=tuple(rng.uniform(0.0, TWO_PI, 4)),
        psi=tuple(rng.uniform(0.0, TWO_PI, 6)),
        alpha_a=rng.uniform(0.0, TWO_PI),
        theta_a=rng.uniform(0.0, TWO_PI),
        alpha_b=rng.uniform(0.0, TWO_PI),
        theta_b=rng.uniform(0.0, TWO_PI),
        psi_a=rng.uniform(0.0, TWO_PI),
    )


def circular_distance(a, b):
    """Elementwise distance between angles, wrapped to [0, pi]."""
    return np.abs(np.mod(np.asarray(a) - np.asarray(b) + np.pi, TWO_PI) - np.pi)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def default_cfg() -> ExperimentConfig:
    return ExperimentConfig.default()
