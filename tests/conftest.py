import numpy as np
import pytest

from reachcert import LinearSystem, NoiseModel, TargetBall


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def reference_rng(base, index):
    """Trajectory ``index``'s stream of base seed ``base``, built by numpy's
    own public API apart from the code under test: Philox keyed by
    SeedSequence(base), jumped ``index`` blocks of 2**128 counters."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(base)).jumped(int(index)))


def reference_noise_draw(noise, rng, count):
    """The noise law written out by hand, independent of NoiseModel.draw:
    standard normals mapped by the Cholesky factor of the covariance, or
    uniforms on [-1, 1] scaled by the half-widths; shape (count, m)."""
    m = noise.dimension
    if noise.kind == "gaussian":
        return rng.standard_normal(size=(count, m)) @ np.linalg.cholesky(noise.cov).T
    return rng.uniform(-1.0, 1.0, size=(count, m)) * noise.half_widths


def explicit_step(system, X, W):
    """One step of the rows of X under the rows of W, written out apart from
    ``advance``: X A' + W B' with every product taken for a linear system,
    else the system's compiled transition."""
    if isinstance(system, LinearSystem):
        return X @ system.A.T + W @ system.B.T
    return np.column_stack([np.broadcast_to(c, len(X)) for c in system._transition(*X.T, *W.T)])


def ball_mask(ball):
    """The row mask of a TargetBall written out by hand, as a callable
    target: q < R^2 with q the squared norm of x - center in the ball's
    norm, which must give the ball's own results bit for bit."""

    def mask(X):
        D = X - ball.center
        q = np.einsum("ij,ij->i", D, D) if ball.weight is None else np.einsum("ij,ij->i", D @ ball.weight, D)
        return q < ball.radius**2

    return mask


def random_stable_matrix(n: int, rng, rho: float = 0.9) -> np.ndarray:
    A = rng.standard_normal((n, n))
    radius = max(abs(np.linalg.eigvals(A)))
    return A * (rho / radius)


@pytest.fixture
def random_walk():
    return LinearSystem(A=[[1.0]], B=[[1.0]], noise=NoiseModel.uniform([1.0]))


@pytest.fixture
def stable_2d():
    return LinearSystem(
        A=[[0.5, 0.1], [0.0, 0.3]], B=np.eye(2), noise=NoiseModel.uniform([1.0, 1.0])
    )


@pytest.fixture
def rotation_system():
    return LinearSystem(
        A=rotation_matrix(np.pi / 4), B=np.eye(2), noise=NoiseModel.uniform([1.0, 1.0])
    )


@pytest.fixture
def unit_ball_1d():
    return TargetBall(center=[0.0], radius=1.0)


@pytest.fixture
def unit_ball_2d():
    return TargetBall(center=[0.0, 0.0], radius=1.0)
