"""The mod-p kernels against independent paths: the plain mod-p
Gauss-Jordan and the plain-integer product in the oracles."""

import random

from diagalg.kernels import mat_mul_mod, mat_rref_mod

from oracles import fraction_rref, mat_mul

PRIMES = [2, 3, 5, 97, 65521, 2**61 - 1]


def _random_entries(rng, p, count):
    # some zeros, so that ranks drop and pivots skip columns
    return [0 if rng.random() < 0.25 else rng.randrange(p) for _ in range(count)]


def test_kernels_match_independent_paths():
    rng = random.Random(61)
    for _ in range(80):
        p = rng.choice(PRIMES)
        n, m, k = (rng.randint(1, 7) for _ in range(3))
        a = _random_entries(rng, p, n * m)
        b = _random_entries(rng, p, m * k)
        A = [a[i * m:(i + 1) * m] for i in range(n)]
        B = [b[i * k:(i + 1) * k] for i in range(m)]
        assert mat_mul_mod(a, b, n, m, k, p) == [x for row in mat_mul(A, B, p) for x in row]
        # full width, and pivots limited to the first columns (augmented
        # systems, as in solve and inverse)
        for limit in (None, rng.randint(0, m)):
            rows, pivots = fraction_rref(A, limit, p)
            got, got_pivots = mat_rref_mod(a, n, m, p, limit)
            assert got == [x for row in rows for x in row]
            assert list(got_pivots) == pivots


def test_rref_shape_properties():
    rng = random.Random(67)
    for _ in range(40):
        p = rng.choice([3, 7, 2**61 - 1])
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = [rng.randrange(p) for _ in range(n * m)]
        rows, pivots = mat_rref_mod(a, n, m, p)
        for r, c in enumerate(pivots):
            assert rows[r * m + c] == 1
            for r2 in range(n):
                if r2 != r:
                    assert rows[r2 * m + c] == 0
        assert list(pivots) == sorted(pivots)


def test_large_prime_entries_stay_exact():
    p = 2**61 - 1
    a = [p - 1, p - 2, p - 3, p - 1]
    # [[-1, -2], [-3, -1]] squared is [[7, 4], [6, 7]]; products near p^2
    assert mat_mul_mod(a, a, 2, 2, 2, p) == [7, 4, 6, 7]
    rows, pivots = mat_rref_mod([p - 1, p - 2, 2, 4], 2, 2, p)
    assert rows == [1, 2, 0, 0] and list(pivots) == [0]
