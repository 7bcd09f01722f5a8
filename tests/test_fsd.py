import hashlib
import warnings

import numpy as np
import pytest

from mgfk import executor, fsd
from mgfk.fsd import FsdCoefficients, generating_poly, tempered, weights, write_csv

from helpers import binomial_weights, fraction_weights, naive_series_power, read_csv


def test_generating_polynomials():
    assert np.allclose(generating_poly(1), [1.0, -1.0])
    assert np.allclose(generating_poly(2), [1.5, -2.0, 0.5])
    # sum of the coefficients vanishes: the symbol has a root at z = 1
    for nu in (1, 2, 3, 4):
        assert generating_poly(nu).sum() == pytest.approx(0.0, abs=1e-15)


def test_first_order_binomial_values():
    l = weights(0.5, 1, 2)
    assert np.allclose(l, [1.0, -0.5, -0.125], rtol=1e-15)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.8, 0.95])
def test_first_order_matches_binomial_recurrence(alpha):
    n = 200
    l = weights(alpha, 1, n)
    g = binomial_weights(alpha, n)
    assert np.allclose(l, g, rtol=1e-14, atol=1e-16)
    assert l[0] == 1.0
    assert np.all(l[1:] < 0.0)
    partial = np.cumsum(l)
    assert np.all(partial > 0.0)
    assert np.all(np.diff(partial) < 0.0)


@pytest.mark.parametrize("nu", [2, 3, 4])
@pytest.mark.parametrize("alpha", [0.3, 0.8])
def test_miller_recurrence_matches_naive_series_power(nu, alpha):
    l = weights(alpha, nu, 64)
    oracle = naive_series_power(generating_poly(nu), alpha, 64)
    assert np.allclose(l, oracle, rtol=1e-12, atol=1e-14)


def test_second_order_example_polynomial():
    # explicit symbol for order two: 3/2 - 2 z + z**2 / 2
    l = weights(0.8, 2, 64)
    oracle = naive_series_power(np.array([1.5, -2.0, 0.5]), 0.8, 64)
    assert np.allclose(l, oracle, rtol=1e-12)


def test_leading_weight_positive():
    for nu in (1, 2, 3, 4):
        for alpha in (0.2, 0.5, 0.9):
            l0 = weights(alpha, nu, 0)[0]
            assert l0 > 0.0
            harmonic = sum(1.0 / i for i in range(1, nu + 1))
            assert l0 == pytest.approx(harmonic**alpha, rel=1e-14)


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_partial_sums_decay(nu):
    l = weights(0.4, nu, 4096)
    partial = np.abs(np.cumsum(l))
    # beyond a transient the partial sums shrink towards W(1) = 0; the decay
    # is algebraic (roughly N**-alpha), so only monotonicity plus a coarse
    # reduction factor is asserted
    tail = partial[16:]
    assert tail[-1] < tail[0] * 0.5
    assert np.all(np.diff(tail) <= 1e-14)


@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_compiled_weights_are_the_numpy_loops_bits(nu):
    # the recurrence runs in the executor, an fma chain: the bytes of the
    # oracle's exact one, each fma formed in fractions
    counts = sorted({0, 1, nu, nu + 1, 1024, 4096})
    alphas = (0.01, 0.3, 0.5, 0.77, 0.99)
    compiled = [fsd.weights(alpha, nu, count) for alpha in alphas for count in counts]
    exact = [fraction_weights(alpha, nu, count) for alpha in alphas for count in counts]
    assert [c.tobytes() for c in compiled] == [x.tobytes() for x in exact]


#: sha-256 of the bytes of ``weights(0.3, nu, 16384)``, as numpy's OpenBLAS
#: ddot summed them on an x86-64 Xeon before the executor took its own fma
#: chain, which gives them on every CPU.
WEIGHT_DIGESTS = {
    1: "ce34d413a3946beea83461b3d374f3f00e10f55e7e4dd08c1a542362290867c5",
    2: "e50907e333a489d4a2430a6fb221ef70ed87436be4cb212c79d6cb6b073d9ad3",
    3: "4135670f2d99b7ba772ee1ac590db1aa03e2bdc7f3179d625feecb650f79b960",
    4: "1ad0387a75d7b9fb212be6d82adab43315c0bfa9f469a30832b80483ca15ee8e",
}


@pytest.mark.parametrize("runner", ["compiled", "numpy"])
@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_weights_keep_their_bytes(nu, runner):
    # the executor's weights ("compiled") and the oracle's exact chain
    # ("numpy", in fractions) each give the pinned bytes
    l = weights(0.3, nu, 16384) if runner == "compiled" else fraction_weights(0.3, nu, 16384)
    assert hashlib.sha256(l.tobytes()).hexdigest() == WEIGHT_DIGESTS[nu]


def test_the_leading_weight_alone_loads_no_executor(monkeypatch):
    # the theory checks take l_0 only: that loads and builds nothing
    monkeypatch.setattr(executor, "_library", lambda: pytest.fail("the executor was loaded"))
    for nu in (1, 2, 3, 4):
        l = weights(0.3, nu, 0)
        assert l.shape == (1,) and l[0] == generating_poly(nu)[0] ** 0.3


def test_tempered_zero_rate_is_identity():
    l = weights(0.6, 2, 10)
    assert np.array_equal(tempered(l, 0.0, 0.3), l + 0j)


def test_tempered_complex_rate_value():
    l = weights(0.8, 1, 1)
    d = tempered(l, 1.0 + 1.0j, 0.1)
    expected = np.exp(-0.1) * (np.cos(0.1) - 1j * np.sin(0.1)) * (-0.8)
    assert d[1] == pytest.approx(expected, rel=1e-14)


def test_tempered_modulus_never_grows():
    l = weights(0.7, 3, 50)
    d = tempered(l, 2.0 + 5.0j, 0.05)
    assert np.all(np.abs(d) <= np.abs(l) + 1e-18)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        weights(0.0, 1, 4)
    with pytest.raises(ValueError):
        weights(1.0, 1, 4)
    with pytest.raises(ValueError):
        weights(0.5, 5, 4)
    with pytest.raises(ValueError):
        weights(0.5, 1, -1)
    with pytest.raises(ValueError):
        FsdCoefficients.build(0.5, 1, 0.0, -1.0, 4)


@pytest.mark.parametrize("rho", [-1000.0, -1000.0 + 1e300j, -1e308])
def test_tempered_weights_that_overflow_are_refused(rho):
    # exp(-rho k tau) overflows from k = 1 on: refused, and numpy's overflow
    # and invalid-value warnings do not escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="d_1 = .* is not finite"):
            FsdCoefficients.build(0.5, 2, rho, 1.0, 4)


@pytest.mark.parametrize("nu, count", [(2.5, 4), (3.9, 4), (3.0, 4), (True, 4), (2, 4.0), (2, 4.5), (2, False)])
def test_non_integer_order_or_count_is_refused(nu, count):
    # int() would truncate them, stepping with the weights of another order
    with pytest.raises(ValueError, match="must be an integer"):
        weights(0.3, nu, count)


def test_numpy_integers_are_accepted():
    assert np.array_equal(weights(0.3, np.int64(2), np.int32(8)), weights(0.3, 2, 8))


def test_an_evolution_of_non_integer_order_is_refused():
    from mgfk.feynman_kac import Evolution, preset

    with pytest.raises(ValueError, match="nu must be an integer"):
        Evolution(preset("example-6.1", 0.3, 16), order=3.9)


def test_csv_round_trip_is_bit_exact(tmp_path):
    coeffs = FsdCoefficients.build(0.37, 3, 1.25 + 0.5j, 0.01, 40)
    path = tmp_path / "coeffs.csv"
    write_csv(coeffs, path)
    l, d = read_csv(path)
    assert np.array_equal(l, coeffs.l)
    assert np.array_equal(d, coeffs.d)
