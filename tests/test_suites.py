import numpy as np
import pytest

from wrvc import suites
from wrvc.jets import Jet


def reference_poly(rng, point, order, scale):
    """The fixture polynomial built from coordinate jets, one scalar draw
    per coefficient: the arithmetic ``suites._random_poly`` reproduces."""
    n = len(point)
    coords = [Jet.variable(i, point[i], n, order) for i in range(n)]
    u = Jet.constant(rng.uniform(-scale, scale), n, order)
    for k in range(n):
        u = u + rng.uniform(-scale, scale) * coords[k]
        for l in range(k, n):
            u = u + rng.uniform(-scale, scale) * coords[k] * coords[l]
    return u


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("order", [2, 4])
def test_random_poly_matches_the_jet_arithmetic_bit_for_bit(n, order):
    for seed in range(120):
        point = np.random.default_rng(10_000 + seed).uniform(-0.6, 0.6, n)
        scale = (0.12, 0.25, 0.5)[seed % 3]
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        got = suites._random_poly(fast, point, order, scale)
        want = reference_poly(slow, point, order, scale)
        assert (got.dim, got.order) == (want.dim, want.order)
        assert got.coeffs.tobytes() == want.coeffs.tobytes(), seed
        assert fast.uniform() == slow.uniform()   # the same next draw


@pytest.mark.parametrize("build", [suites._random_metric, suites._random_structure])
def test_random_fixtures_multiply_no_jets(monkeypatch, build):
    products = []
    mul = Jet.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    monkeypatch.setattr(Jet, "__rmul__", counted)
    rng = np.random.default_rng(suites.DEFAULT_SEED)
    build(rng)
    assert products == []
    # the counter sees the products the reference makes
    reference_poly(rng, [0.1, 0.2, 0.3], 4, 0.5)
    assert len(products) == 15
