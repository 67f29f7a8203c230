"""Differential tests of the fraction-free linear algebra over Q.

``rref_rows`` over Q runs Gauss-Jordan on integer rows,
``krylov_annihilators`` runs every Krylov chain on the integer matrix
delta*T through the integer ``Echelon`` (over F_p too, with delta = 1), and
``Matrix.__mul__`` over Q forms one integer product of the operands cleared
of their denominators.  They are checked against independent references: a
plain Gauss-Jordan and a plain triple-loop product on Fractions
(``oracles.fraction_rref``, ``oracles.fraction_matmul``), the dense Krylov
annihilator of ``oracles.krylov_annihilator_dense``, and sympy.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diagalg.errors import NotInvertible
from diagalg.fields import GF, QQ, Polynomial
from diagalg import linalg
from diagalg.linalg import Matrix, krylov_annihilators, minimal_polynomial, rref_rows

from oracles import (
    conjugated,
    fraction_matmul,
    fraction_rref,
    krylov_annihilator_dense,
    plain_rank,
    sympy_divides,
    sympy_is_minimal_polynomial,
)

ff_settings = settings(max_examples=80, deadline=None, database=None)

# zeros, small integers, and fractions with denominators up to 10^6
entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """Tall, wide and square rational matrices, with zero rows, scaled
    duplicate rows and sums of rows mixed in (in shuffled order)."""
    nrows = draw(st.integers(1, 7)) if nrows is None else nrows
    ncols = draw(st.integers(1, 7)) if ncols is None else ncols
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    extra = draw(st.lists(st.tuples(st.sampled_from(["zero", "dup", "sum"]),
                                    st.integers(0, nrows - 1), st.integers(0, nrows - 1),
                                    st.sampled_from([-3, -1, 2, Fraction(1, 7)])),
                          max_size=3))
    for kind, i, j, s in extra:
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "dup":
            rows.append([s * x for x in rows[i]])
        else:
            rows.append([a + s * b for a, b in zip(rows[i], rows[j])])
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


nonzero_entries = st.one_of(
    st.builds(Fraction, st.integers(-4, 4).filter(bool)),
    st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**6)),
)


@st.composite
def operands(draw, nrows, ncols):
    """An nrows x ncols matrix (as rows of Fractions) that is mostly zero
    (at most three nonzero entries), mixed, or dense."""
    kind = draw(st.sampled_from(["sparse", "mixed", "dense"]))
    if kind == "sparse":
        rows = [[Fraction(0)] * ncols for _ in range(nrows)]
        if nrows and ncols:
            for i, j, x in draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                                   st.integers(0, ncols - 1),
                                                   nonzero_entries), max_size=3)):
                rows[i][j] = x
        return rows
    entry = entries if kind == "mixed" else nonzero_entries
    return [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


@st.composite
def products(draw):
    """Factors (A, B) of an n x m by m x k product, n, m, k from 0 to 6.  A
    matrix without rows has no columns, so when n = 0 the inner size is 0
    too; the empty shapes drawn are n x 0 * 0 x 0, 0 x 0 * 0 x 0 and
    n x m * m x 0."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 6)) if n else 0
    k = draw(st.integers(0, 6))
    return draw(operands(n, m)), draw(operands(m, k))


def matvec(rows, x):
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]


class TestRrefRows:
    @ff_settings
    @given(matrices())
    def test_matches_fraction_gauss_jordan(self, rows):
        out, pivots = rref_rows(rows, QQ)
        ref, ref_pivots = fraction_rref(rows)
        assert pivots == ref_pivots
        assert out == ref
        assert all(type(x) is Fraction for row in out for x in row)

    @ff_settings
    @given(matrices(), st.data())
    def test_solve(self, rows, data):
        ncols = len(rows[0])
        if data.draw(st.booleans()):
            b = matvec(rows, data.draw(st.lists(entries, min_size=ncols, max_size=ncols)))
        else:
            b = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        ref, pivots = fraction_rref([r + [x] for r, x in zip(rows, b)], pivot_limit=ncols)
        X = Matrix(QQ, rows).solve_matrix(Matrix(QQ, [[x] for x in b]))
        x = None if X is None else [row[0] for row in X.rows]
        if any(row[-1] for row in ref[len(pivots):]):
            assert x is None
            return
        expected = [Fraction(0)] * ncols
        for r, c in enumerate(pivots):
            expected[c] = ref[r][-1]
        assert x == expected and matvec(rows, x) == b

    @ff_settings
    @given(matrices(), st.integers(1, 3), st.data())
    def test_solve_matrix(self, rows, k, data):
        ncols = len(rows[0])
        cols = []
        for _ in range(k):
            if data.draw(st.booleans()):
                cols.append(matvec(rows, data.draw(
                    st.lists(entries, min_size=ncols, max_size=ncols))))
            else:
                cols.append(data.draw(st.lists(entries, min_size=len(rows),
                                               max_size=len(rows))))
        B = [list(r) for r in zip(*cols)]
        ref, pivots = fraction_rref([r + b for r, b in zip(rows, B)], pivot_limit=ncols)
        X = Matrix(QQ, rows).solve_matrix(Matrix(QQ, B))
        if any(any(row[ncols:]) for row in ref[len(pivots):]):
            assert X is None
            return
        expected = [[Fraction(0)] * k for _ in range(ncols)]
        for r, c in enumerate(pivots):
            expected[c] = ref[r][ncols:]
        assert X == Matrix(QQ, expected)

    @ff_settings
    @given(st.integers(1, 6).flatmap(lambda n: matrices(nrows=n, ncols=n)))
    def test_inverse(self, rows):
        n = len(rows[0])
        rows = rows[:n]
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        ref, pivots = fraction_rref([r + e for r, e in zip(rows, identity)], pivot_limit=n)
        A = Matrix(QQ, rows)
        if pivots != list(range(n)):
            with pytest.raises(NotInvertible):
                A.inverse()
            return
        assert A.inverse() == Matrix(QQ, [row[n:] for row in ref])

    def test_integer_matrix_needs_no_fraction_multiplication(self, monkeypatch):
        rng = random.Random(12)
        rows = [[Fraction(rng.randint(-9, 9)) for _ in range(12)] for _ in range(12)]
        expected = fraction_rref(rows)
        calls = []
        for name in ("__mul__", "__rmul__"):
            real = getattr(Fraction, name)

            def counted(a, b, real=real):
                calls.append(1)
                return real(a, b)

            monkeypatch.setattr(Fraction, name, counted)
        assert Fraction(2, 3) * 3 == 2 and calls  # the counter sees products
        calls.clear()
        out = rref_rows(rows, QQ)
        assert not calls
        monkeypatch.undo()
        assert out == expected and len(out[1]) == 12


class TestMatmul:
    @settings(max_examples=150, deadline=None, database=None)
    @given(products())
    def test_matches_fraction_triple_loop(self, ab):
        A, B = ab
        C = Matrix(QQ, A) * Matrix(QQ, B)
        expected = fraction_matmul(A, B)
        assert (C.nrows, C.ncols) == (len(A), len(expected[0]) if expected else 0)
        assert [list(row) for row in C.rows] == expected
        assert all(type(x) is Fraction for row in C.rows for x in row)

    def test_rational_product_makes_no_fraction_arithmetic(self, monkeypatch):
        rng = random.Random(13)

        def entry():
            if rng.random() < 0.3:
                return Fraction(0)
            return Fraction(rng.randint(-10**6, 10**6), rng.choice([1, 2, 9, 10**6]))

        A = [[entry() for _ in range(12)] for _ in range(12)]
        B = [[entry() for _ in range(12)] for _ in range(12)]
        expected = fraction_matmul(A, B)
        MA, MB = Matrix(QQ, A), Matrix(QQ, B)
        calls = []
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            real = getattr(Fraction, name)

            def counted(a, b, real=real):
                calls.append(1)
                return real(a, b)

            monkeypatch.setattr(Fraction, name, counted)
        assert Fraction(2, 3) * 3 + 1 == 3 and len(calls) == 2  # the counter sees both
        calls.clear()
        C = MA * MB
        assert not calls
        monkeypatch.undo()
        assert [list(row) for row in C.rows] == expected


# Jordan blocks at small rational eigenvalues and companion blocks of
# irreducible quadratics; sizes add up to at most 6
blocks = st.lists(
    st.one_of(
        st.tuples(st.just("jordan"), st.sampled_from([0, 1, -2, Fraction(1, 3)]),
                  st.integers(1, 3)),
        st.tuples(st.just("companion"), st.sampled_from([[-2, 0], [1, 1], [3, -1]])),
    ),
    min_size=1, max_size=3,
)


def _size(block):
    return block[2] if block[0] == "jordan" else len(block[1])


class TestMinimalPolynomial:
    @settings(max_examples=40, deadline=None, database=None)
    @given(blocks, st.data())
    def test_against_sympy_on_conjugated_matrices(self, bs, data):
        n = sum(_size(b) for b in bs)
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        while True:
            P = [[Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 7, 10**6]))
                  for _ in range(n)] for _ in range(n)]
            if len(fraction_rref(P)[1]) == n:
                break
        T = conjugated(bs, P)
        mu = minimal_polynomial(Matrix(QQ, T))
        assert mu.is_monic()
        assert sympy_is_minimal_polynomial(list(mu.coeffs), T)

    def test_large_common_denominator(self):
        T = conjugated([("jordan", 2, 2), ("jordan", Fraction(-1, 5), 1),
                        ("companion", [-2, 0])],
                       [[Fraction(1, 10**6 + 3), 2, 0, 1, 0],
                        [0, 1, Fraction(3, 999983), 0, 0],
                        [1, 0, 1, 0, Fraction(-1, 7)],
                        [0, 0, 0, 1, 1],
                        [2, 1, 0, 0, 1]])
        mu = minimal_polynomial(Matrix(QQ, T))
        # (x - 2)^2 (x + 1/5) (x^2 - 2)
        expected = (Polynomial(QQ, [4, -4, 1]) * Polynomial(QQ, [Fraction(1, 5), 1])
                    * Polynomial(QQ, [-2, 0, 1]))
        assert mu == expected
        assert sympy_is_minimal_polynomial(list(mu.coeffs), T)


def fp_blocks(p):
    """Jordan blocks at any eigenvalue mod p and companion blocks of any
    monic polynomial of degree 2 or 3; sizes add up to at most 9."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("jordan"), st.integers(0, p - 1), st.integers(1, 3)),
            st.tuples(st.just("companion"),
                      st.lists(st.integers(0, p - 1), min_size=2, max_size=3)),
        ),
        min_size=1, max_size=3,
    )


@st.composite
def krylov_cases(draw):
    """(p, T): T = P J P^-1 over Q, P with entries of denominators up to
    10^6, or over F_2, F_3 or F_65521 (p None for Q)."""
    p = draw(st.sampled_from([None, 2, 3, 65521]))
    bs = draw(blocks if p is None else fp_blocks(p))
    n = sum(_size(b) for b in bs)
    rng = random.Random(draw(st.integers(0, 10**6)))
    while True:
        if p is None:
            P = [[Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 7, 10**6]))
                  for _ in range(n)] for _ in range(n)]
        else:
            P = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if plain_rank(P, p) == n:
            return p, conjugated(bs, P, p)


class TestKrylovChains:
    @settings(max_examples=80, deadline=None, database=None)
    @given(krylov_cases())
    def test_every_chain_matches_dense_oracle(self, case):
        p, T = case
        field = QQ if p is None else GF(p)
        n = len(T)
        M = Matrix(field, T)
        anns = list(krylov_annihilators(M))
        assert len(anns) == n
        mu = minimal_polynomial(M)
        assert sympy_is_minimal_polynomial(list(mu.coeffs), T, p)
        for i, ann in enumerate(anns):
            e = [int(j == i) for j in range(n)]
            assert list(ann.coeffs) == krylov_annihilator_dense(T, e, n, p)
            # the annihilator of each basis vector divides mu
            assert sympy_divides(ann.coeffs, mu.coeffs, p)


# Jordan blocks at eigenvalues with numerators and denominators up to 10^6,
# and companion blocks of arbitrary monic quadratics; sizes add up to at most 6
wide_blocks = st.lists(
    st.one_of(
        st.tuples(st.just("jordan"),
                  st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
                  st.integers(1, 3)),
        st.tuples(st.just("companion"), st.lists(st.integers(-9, 9), min_size=2, max_size=2)),
    ),
    min_size=1, max_size=3,
)


@st.composite
def minimal_polynomial_cases(draw):
    """(p, T) as ``krylov_cases`` draws them, or over Q with the eigenvalues
    and companion blocks of ``wide_blocks``."""
    if draw(st.booleans()):
        return draw(krylov_cases())
    bs = draw(wide_blocks)
    n = sum(_size(b) for b in bs)
    rng = random.Random(draw(st.integers(0, 10**6)))
    while True:
        P = [[Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 7, 10**6]))
              for _ in range(n)] for _ in range(n)]
        if plain_rank(P) == n:
            return None, conjugated(bs, P)


class TestMinimalPolynomialWithoutGcd:
    """``minimal_polynomial`` multiplies mu by the annihilator of mu(A) e_i
    on int lists instead of taking lcms of Polynomials."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(minimal_polynomial_cases())
    def test_against_sympy_over_q_and_prime_fields(self, case):
        p, T = case
        mu = minimal_polynomial(Matrix(QQ if p is None else GF(p), T))
        assert mu.is_monic()
        assert sympy_is_minimal_polynomial(list(mu.coeffs), T, p)

    def test_skips_basis_vectors_already_killed(self, monkeypatch):
        # diag(1, 1, 2, 2): after e_0, mu = x - 1 kills e_1 and maps e_2 to
        # itself, whose chain makes mu = (x - 1)(x - 2), which kills e_3
        chains = []
        real = linalg._chain_relation

        def counted(field, A, v):
            chains.append(list(v))
            return real(field, A, v)

        monkeypatch.setattr(linalg, "_chain_relation", counted)
        for field in (QQ, GF(5)):
            chains.clear()
            mu = minimal_polynomial(Matrix.diagonal(field, [1, 1, 2, 2]))
            assert mu == Polynomial(field, [2, -3, 1])
            assert chains == [[1, 0, 0, 0], [0, 0, 1, 0]]
