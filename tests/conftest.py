import numpy as np
import pytest

from weylprior import geometry, get_model
from weylprior.numerics import sample_nodes


@pytest.fixture(autouse=True)
def fresh_bundles():
    """Start every test with no kept geometry bundle, so a bundle evaluated by
    an earlier test never hides a patch of what the bundle reads (``_phi``,
    the kernels, ``tensors._tensors``)."""
    geometry._memo.clear()


@pytest.fixture(scope="session")
def g1():
    return get_model("gaussian1d")


@pytest.fixture(scope="session")
def mv2():
    return get_model("gaussian_mv", n=2)


@pytest.fixture(scope="session")
def bern():
    return get_model("bernoulli")


@pytest.fixture(scope="session")
def pois():
    return get_model("poisson")


def vech_theta(mu, sigma):
    """Reference-chart point for gaussian_mv from (mu, Sigma)."""
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0]
    tri = [sigma[i, j] for i in range(n) for j in range(i, n)]
    return np.concatenate([np.asarray(mu, dtype=float), tri])


def expect(model, theta, f):
    """E_theta[f(X)] as the weighted sum w @ f(x) over the sample nodes of
    the reference-chart point ``theta``."""
    x, w = sample_nodes(model, np.asarray(theta, dtype=float))
    return float(w @ f(x))
