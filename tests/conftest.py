import numpy as np
import pytest

from weylprior import geometry, get_model
from weylprior.numerics import sample_nodes


@pytest.fixture(autouse=True)
def fresh_bundles():
    """Start every test with no kept geometry bundle, so a bundle evaluated by
    an earlier test never hides a patch of what the bundle reads (``_phi``,
    the kernels, ``tensors._tensors``)."""
    geometry._kept_bundle.cache_clear()


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


def diagonal_gaussian(swap):
    """N((a, b), diag(e^b, e^a)) for ``swap``, a curved family whose Weyl
    1-form is not closed, else the product family N((a, b), diag(e^a, e^b)),
    whose 1-form is closed; both in the one chart (a, b) on R^2."""
    from weylprior.models import Chart, ModelSpec, SampleSpace

    def variances(t):
        return np.exp(t[..., ::-1] if swap else t)

    def logp(x, t):
        v = variances(t)[..., None, :]
        return -0.5 * np.sum(np.log(2.0 * np.pi * v) + (x - t[..., None, :]) ** 2 / v,
                             axis=-1)

    def score(x, t):
        v = variances(t)[..., None, :]
        d = x - t[..., None, :]
        # d log p / d log v_j, moved to the coordinate that log v_j is
        by_log_variance = 0.5 * (d ** 2 / v - 1.0)
        return d / v + (by_log_variance[..., ::-1] if swap else by_log_variance)

    def std(t):
        return t.copy(), np.sqrt(variances(t))[..., None] * np.eye(2)

    chart = Chart("ab", ["a", "b"], lambda t, margin: np.ones(t.shape[:-1], dtype=bool))
    return ModelSpec(id="diagonal_gaussian_swapped" if swap else "diagonal_gaussian",
                     dim=2, sample_space=SampleSpace("continuous", 2),
                     charts={chart.name: chart}, reference="ab",
                     log_density=logp, analytic_score=score, standardize=std)
