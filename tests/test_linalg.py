import random
from fractions import Fraction

import pytest

from diagalg.errors import NotSquare, SizeMismatch
from diagalg.fields import GF, Polynomial, QQ, poly_splits_simply
from diagalg.linalg import (
    Echelon,
    Matrix,
    Subspace,
    commutant,
    diagonalize_finite,
    joint_eigenprojections,
    matrix_to_vec,
    minimal_polynomial,
    poly_at_matrix,
    rref_rows,
    simultaneous_diagonalize_finite,
)

from oracles import (
    count_calls,
    plain_rank,
    plain_solve,
    sympy_charpoly_coeffs,
    sympy_divides,
    sympy_factor_degrees,
    sympy_poly_at,
    sympy_rational_diagonalizable,
)


def oracle_charpoly(A):
    """sympy's characteristic polynomial of A; over F_p the integer
    polynomial of the representatives, reduced mod p."""
    return Polynomial(A.field, sympy_charpoly_coeffs([list(r) for r in A.rows]))


def rand_matrix(rng, field, n):
    if field.char == 0:
        return Matrix(field, [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
    return Matrix(field, [[rng.randrange(field.char) for _ in range(n)] for _ in range(n)])


class TestMatrixBasics:
    def test_mul_matches_plain_loops(self):
        rng = random.Random(1)
        for field in (QQ, GF(5)):
            A = rand_matrix(rng, field, 4)
            B = rand_matrix(rng, field, 4)
            C = A * B
            for i in range(4):
                for j in range(4):
                    acc = field.zero
                    for t in range(4):
                        acc = field.add(acc, field.mul(A[i, t], B[t, j]))
                    assert C[i, j] == acc

    def test_rank_matches_oracle(self):
        rng = random.Random(2)
        for _ in range(30):
            field = rng.choice([QQ, GF(3)])
            n = rng.randint(1, 5)
            A = rand_matrix(rng, field, n)
            p = field.char or None
            assert A.rank() == plain_rank([list(r) for r in A.rows], p)

    def test_solve_and_inverse(self):
        A = Matrix(QQ, [[2, 1], [1, 1]])
        b = Matrix(QQ, [[3], [2]])
        assert A * A.solve_matrix(b) == b
        assert A * A.inverse() == Matrix.identity(QQ, 2)
        assert Matrix(QQ, [[1, 1], [1, 1]]).solve_matrix(Matrix(QQ, [[1], [0]])) is None

    def test_kernel(self):
        A = Matrix(QQ, [[1, 1, 0], [0, 0, 1]])
        ker = A.kernel_basis()
        assert len(ker) == 1
        assert A.matvec(ker[0]) == [Fraction(0), Fraction(0)]

    def test_charpoly_against_sympy(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 5)
            A = rand_matrix(rng, QQ, n)
            chi = oracle_charpoly(A)
            mu = minimal_polynomial(A)
            # Cayley-Hamilton, and mu has exactly the irreducible factors of
            # chi: mu | chi and chi | mu^n
            assert poly_at_matrix(chi, A).is_zero()
            assert sympy_divides(mu.coeffs, chi.coeffs)
            mu_n = Polynomial.one(QQ)
            for _ in range(n):
                mu_n = mu_n * mu
            assert sympy_divides(chi.coeffs, mu_n.coeffs)

    def test_zero_dimensional_edges(self):
        E = Matrix(QQ, [])
        assert minimal_polynomial(E) == Polynomial.one(QQ)
        assert oracle_charpoly(E) == Polynomial.one(QQ)
        res = diagonalize_finite(E)
        assert res.ok and res.p.nrows == 0

    def test_shape_errors(self):
        with pytest.raises(NotSquare):
            minimal_polynomial(Matrix(QQ, [[1, 2]]))
        with pytest.raises(SizeMismatch):
            Matrix(QQ, [[1]]) * Matrix(QQ, [[1, 2], [3, 4]])

    def test_public_constructor_coerces_and_rejects_ragged_rows(self):
        M = Matrix(QQ, [[1, "1/2"], [Fraction(3), -4]])
        assert all(type(x) is Fraction for row in M.rows for x in row)
        assert M.rows == ((1, Fraction(1, 2)), (3, -4))
        assert Matrix(GF(5), [[7, -1]]).rows == ((2, 4),)
        for rows in ([[1, 2], [3]], [[1], [2, 3]]):
            with pytest.raises(SizeMismatch):
                Matrix(QQ, rows)
        with pytest.raises(TypeError):
            Matrix(QQ, [[1.5]])

    def test_built_results_hold_field_scalars(self):
        A = Matrix(QQ, [[1, 2], [3, 4]])
        results = [A + A, A - A, -A, A * A, A.scale(3), A.transpose(), A.inverse(),
                   Matrix._of(QQ, rref_rows(A.rows, QQ)[0]), A.solve_matrix(A),
                   Matrix.from_cols(QQ, A.rows), Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 3),
                   Matrix.diagonal(QQ, [1, 2])]
        for R in results:
            assert all(len(row) == R.ncols for row in R.rows)
            assert all(type(x) is Fraction for row in R.rows for x in row)
        assert A.transpose() == Matrix(QQ, [[1, 3], [2, 4]])
        assert Matrix.from_cols(QQ, A.rows) == A.transpose()


class TestMinimalPolynomial:
    def test_identity(self):
        mu = minimal_polynomial(Matrix.identity(QQ, 3))
        assert mu == Polynomial(QQ, [-1, 1])

    def test_nilpotent_block(self):
        J = Matrix(QQ, [[0, 1], [0, 0]])
        assert minimal_polynomial(J) == Polynomial(QQ, [0, 0, 1])

    def test_companion_of_irreducible_cubic(self):
        f = Polynomial(QQ, [-2, 0, 0, 1])  # x^3 - 2
        C = Matrix.companion(f)
        mu = minimal_polynomial(C)
        # oracle: the characteristic polynomial is x^3 - 2 and it is
        # irreducible, so its only monic divisors are 1 and itself
        assert sympy_charpoly_coeffs([list(r) for r in C.rows]) == [-2, 0, 0, 1]
        assert sympy_factor_degrees([-2, 0, 0, 1]) == [3]
        assert mu == f

    def test_divides_charpoly(self):
        rng = random.Random(4)
        for _ in range(40):
            field = rng.choice([QQ, GF(3), GF(5)])
            A = rand_matrix(rng, field, rng.randint(1, 4))
            mu = minimal_polynomial(A)
            chi = oracle_charpoly(A)
            assert sympy_divides(mu.coeffs, chi.coeffs, field.char or None)
            assert poly_at_matrix(mu, A).is_zero()


class TestPolyAtMatrix:
    def test_against_sympy_horner(self, monkeypatch):
        # one product per degree: Horner starts from the leading coefficient
        products = []
        real = Matrix.__mul__

        def counting(self, other):
            products.append(1)
            return real(self, other)

        monkeypatch.setattr(Matrix, "__mul__", counting)
        rng = random.Random(21)
        for field in (QQ, GF(7), GF(2)):
            for _ in range(15):
                n = rng.randint(0, 4)
                T = rand_matrix(rng, field, n)
                if field.char == 0:
                    T = T.scale(Fraction(1, rng.choice([1, 2, 5])))
                    coeffs = [Fraction(rng.randint(-3, 3), rng.choice([1, 3]))
                              for _ in range(rng.randint(0, 5))]
                else:
                    coeffs = [rng.randrange(field.char) for _ in range(rng.randint(0, 5))]
                poly = Polynomial(field, coeffs)
                products.clear()
                value = poly_at_matrix(poly, T)
                assert len(products) == max(poly.degree, 0)
                ref = sympy_poly_at(list(poly.coeffs), [list(r) for r in T.rows])
                expected = [[Fraction(int(ref[i, j].p), int(ref[i, j].q)) for j in range(n)]
                            for i in range(n)]
                if field.char:
                    expected = [[int(x) % field.char for x in row] for row in expected]
                assert value == Matrix(field, expected)


class TestDiagonalizeFinite:
    def test_already_diagonal(self):
        T = Matrix.diagonal(QQ, [1, 2])
        res = diagonalize_finite(T)
        assert res.ok and res.p == Matrix.identity(QQ, 2) and res.d == T

    def test_swap_matrix_over_q(self):
        res = diagonalize_finite(Matrix(QQ, [[0, 1], [1, 0]]))
        assert res.ok
        assert [res.d[i, i] for i in range(2)] == [Fraction(-1), Fraction(1)]

    def test_swap_matrix_over_f2(self):
        # over F_2 the minimal polynomial is x^2 + 1 = (x+1)^2: brute force
        # the annihilator from powers I, T, T^2
        F = GF(2)
        T = Matrix(F, [[0, 1], [1, 0]])
        powers = [matrix_to_vec(Matrix.identity(F, 2)), matrix_to_vec(T),
                  matrix_to_vec(T * T)]
        assert plain_rank(powers[:2], 2) == 2 and plain_rank(powers, 2) == 2
        dep = plain_solve([list(r) for r in zip(*powers[:2])], powers[2], 2)
        mu_expected = Polynomial(F, [(-dep[0]) % 2, (-dep[1]) % 2, 1])
        res = diagonalize_finite(T)
        assert not res.ok
        assert res.mu == mu_expected == Polynomial(F, [1, 0, 1])

    def test_conjugation_verified(self):
        rng = random.Random(5)
        for _ in range(40):
            field = rng.choice([QQ, GF(5)])
            T = rand_matrix(rng, field, rng.randint(1, 4))
            res = diagonalize_finite(T)
            if res.ok:
                assert res.p.inverse() * T * res.p == res.d
                # diagonal entries = roots of the characteristic polynomial
                chi = oracle_charpoly(T)
                diag = [res.d[i, i] for i in range(T.nrows)]
                prod = Polynomial.from_roots(field, diag)
                assert prod == chi
            else:
                assert not poly_splits_simply(res.mu).splits

    def test_makes_no_polynomial_division(self, monkeypatch):
        # mu from int-list products, roots and splitting reasons on int lists:
        # no verdict over any field divides a Polynomial
        calls = count_calls(monkeypatch, Polynomial, ("__divmod__",))
        rng = random.Random(8)
        verdicts = set()
        for t in range(80):
            field = (QQ, GF(2), GF(5), GF(65521))[t % 4]
            T = rand_matrix(rng, field, 4)
            P = rand_matrix(rng, field, 4)
            if t % 8 >= 4 and P.rank() == 4:  # P D P^-1, eigenvalues drawn from 0..3
                T = P * Matrix.diagonal(field, [rng.randrange(4) for _ in range(4)]) * P.inverse()
            res = diagonalize_finite(T)
            verdicts.add((field.char > 0, res.ok))
        assert verdicts == {(False, True), (False, False), (True, True), (True, False)}
        # Jordan blocks: squarefreeness is settled over Z
        half = Fraction(1, 2)
        for entries in ([[1, 1], [0, 1]], [[half, 1, 0], [0, half, 0], [0, 0, 5]]):
            assert not diagonalize_finite(Matrix(QQ, entries)).ok
        assert calls == {"__divmod__": 0}

    def test_large_prime_eigenvalues_over_q(self):
        # the old divisor enumeration refused these as capacity errors
        big = 10000000000000061
        for entries, eigenvalues in (
                ([[1000000000039, 0], [0, 1]], [1, 1000000000039]),
                ([[Fraction(1, 1000000000039)]], [Fraction(1, 1000000000039)]),
                ([[big, 1], [0, -big]], [-big, big])):
            res = diagonalize_finite(Matrix(QQ, entries))
            assert res.ok and res.eigenvalues == eigenvalues

    def test_fp_diagonalizable_iff_power_identity(self):
        rng = random.Random(6)
        for t in range(300):
            field = GF(3) if t % 2 else GF(5)
            T = rand_matrix(rng, field, 4)
            res = diagonalize_finite(T)
            assert res.ok == ((T ** field.char) == T)


class TestCommutant:
    def test_identity_generator(self):
        space = commutant([Matrix.identity(QQ, 2)])
        assert space.dim == 4

    def test_nilpotent_block(self):
        J = Matrix(QQ, [[0, 1], [0, 0]])
        space = commutant([J])
        # oracle: solve X J = J X as a plain 4x4 homogeneous system
        # unknowns x = (a, b, c, d) for X = [[a, b], [c, d]]
        rows = [
            [0, 0, 1, 0],   # (XJ-JX)[0][0] = -c
            [1, 0, 0, -1],  # (XJ-JX)[0][1] = a - d
            [0, 0, 0, 0],   # (XJ-JX)[1][0] = 0
            [0, 0, 1, 0],   # (XJ-JX)[1][1] = c
        ]
        assert space.dim == 4 - plain_rank(rows)
        assert space.contains(matrix_to_vec(Matrix.identity(QQ, 2)))
        assert space.contains(matrix_to_vec(J))

    def test_distinct_diagonal(self):
        space = commutant([Matrix.diagonal(QQ, [1, 2])])
        assert space.dim == 2
        assert space.contains([1, 0, 0, 0]) and space.contains([0, 0, 0, 1])

    def test_contains_polynomials_of_generators(self):
        rng = random.Random(7)
        for _ in range(20):
            field = rng.choice([QQ, GF(3)])
            T = rand_matrix(rng, field, 3)
            space = commutant([T])
            assert space.contains(matrix_to_vec(Matrix.identity(field, 3)))
            assert space.contains(matrix_to_vec(T * T))

    def test_double_commutant_of_distinct_diagonalizable(self):
        T = Matrix(QQ, [[0, 1], [1, 0]])  # eigenvalues 1, -1
        first = commutant([T])
        mats = [Matrix(QQ, [list(first.rows[i][0:2]), list(first.rows[i][2:4])])
                for i in range(first.dim)]
        second = commutant(mats)
        # the double commutant is the polynomial algebra of T: here dim 2
        assert second.dim == 2
        assert second.contains(matrix_to_vec(T))


class TestSimultaneous:
    def test_diagonal_pair(self):
        res = simultaneous_diagonalize_finite(
            [Matrix.diagonal(QQ, [1, 2]), Matrix.diagonal(QQ, [3, 3])])
        assert res.ok and res.p == Matrix.identity(QQ, 2)

    def test_power_pair_joint_basis(self):
        T = Matrix(QQ, [[0, 1], [1, 0]])
        res = simultaneous_diagonalize_finite([T, T * T])
        assert res.ok
        cols = [res.p.col(j) for j in range(2)]
        # joint basis (1, 1) and (1, -1) up to scaling; oracle: common
        # eigenvectors of T (T^2 = I adds nothing)
        for col in cols:
            ratio = {tuple(x * col[0] for x in (1, 1)), tuple(x * col[0] for x in (1, -1))}
            assert tuple(col) in ratio or tuple(-x for x in col) in ratio

    def test_fail_witnesses(self):
        J = Matrix(QQ, [[0, 1], [0, 0]])
        res = simultaneous_diagonalize_finite([J, Matrix.identity(QQ, 2)])
        assert not res.ok and res.reason == "notdiagonalizable"
        assert res.witness[1] == Polynomial(QQ, [0, 0, 1])
        A = Matrix(QQ, [[0, 1], [1, 0]])
        B = Matrix(QQ, [[1, 1], [0, 2]])
        res2 = simultaneous_diagonalize_finite([A, B])
        assert not res2.ok and res2.reason == "noncommuting"

    def test_polynomials_of_common_matrix(self):
        rng = random.Random(8)
        for _ in range(25):
            field = rng.choice([QQ, GF(7)])
            n = rng.randint(2, 4)
            while True:
                P = rand_matrix(rng, field, n)
                if P.rank() == n:
                    break
            vals = ([Fraction(rng.randint(-3, 3)) for _ in range(n)] if field.char == 0
                    else [rng.randrange(field.char) for _ in range(n)])
            T = P * Matrix.diagonal(field, vals) * P.inverse()
            fams = []
            for _ in range(3):
                coeffs = ([Fraction(rng.randint(-2, 2)) for _ in range(3)] if field.char == 0
                          else [rng.randrange(field.char) for _ in range(3)])
                fams.append(poly_at_matrix(Polynomial(field, coeffs), T))
            res = simultaneous_diagonalize_finite(fams)
            assert res.ok

    def test_members_reduced_once(self, monkeypatch):
        # one minimal polynomial per member; the blocks are split by the
        # eigenspaces of the restrictions, with no per-block diagonalization
        from diagalg import linalg
        calls = {"minimal_polynomial": 0, "diagonalize_finite": 0}
        for name in calls:
            real = getattr(linalg, name)

            def counting(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(linalg, name, counting)
        rng = random.Random(9)
        for _ in range(10):
            field = rng.choice([QQ, GF(5)])
            n = rng.randint(2, 5)
            while True:
                P = rand_matrix(rng, field, n)
                if P.rank() == n:
                    break
            Pinv = P.inverse()
            Ts = [P * Matrix.diagonal(field, [rng.randint(0, 2) for _ in range(n)]) * Pinv
                  for _ in range(rng.randint(1, 4))]
            calls.update(minimal_polynomial=0, diagonalize_finite=0)
            res = simultaneous_diagonalize_finite(Ts)
            assert res.ok
            assert calls == {"minimal_polynomial": len(Ts), "diagonalize_finite": 0}
            signatures = [sig for sig, _ in res.blocks]
            assert signatures == sorted(signatures) and len(set(signatures)) == len(signatures)

    def test_refinement_restricts_from_the_second_member_on(self, monkeypatch):
        # the first member splits the whole space: no restriction is solved
        # for it; every later member is solved once on each current block
        from diagalg import linalg
        solves = []
        real = Matrix.solve_matrix

        def counting(self, B):
            solves.append(1)
            return real(self, B)

        monkeypatch.setattr(Matrix, "solve_matrix", counting)
        rng = random.Random(10)
        for _ in range(10):
            field = rng.choice([QQ, GF(5)])
            n = rng.randint(1, 5)
            while True:
                P = rand_matrix(rng, field, n)
                if P.rank() == n:
                    break
            Pinv = P.inverse()
            Ts = [P * Matrix.diagonal(field, [rng.randint(0, 2) for _ in range(n)]) * Pinv
                  for _ in range(rng.randint(1, 4))]
            roots = [poly_splits_simply(minimal_polynomial(T)).roots for T in Ts]
            solves.clear()
            blocks = linalg._refine_blocks(Ts, roots)
            # blocks before member m are the distinct signature prefixes of length m
            expected = sum(len({sig[:m] for sig, _ in blocks}) for m in range(1, len(Ts)))
            assert len(solves) == expected
            assert sum(len(cols) for _, cols in blocks) == n
            assert simultaneous_diagonalize_finite(Ts).blocks == blocks

    def test_joint_eigenprojections_resolve_identity(self):
        T1 = Matrix.diagonal(QQ, [1, 1, 2])
        T2 = Matrix.diagonal(QQ, [0, 3, 3])
        projs = joint_eigenprojections([T1, T2])
        assert len(projs) == 3
        total = Matrix.zeros(QQ, 3)
        for _, pr in projs:
            assert pr * pr == pr
            total = total + pr
        assert total == Matrix.identity(QQ, 3)


class TestSubspace:
    def test_rref_canonical_equality(self):
        a = Subspace.from_vectors(QQ, 3, [[1, 1, 0], [0, 1, 1]])
        b = Subspace.from_vectors(QQ, 3, [[2, 2, 0], [1, 2, 1]])
        assert a == b

    def test_intersection_and_sum(self):
        a = Subspace.from_vectors(QQ, 3, [[1, 0, 0], [0, 1, 0]])
        b = Subspace.from_vectors(QQ, 3, [[0, 1, 0], [0, 0, 1]])
        cap = a.intersection(b)
        assert cap.dim == 1 and cap.contains([0, 1, 0])
        assert (a + b).dim == 3

    def test_diagonalizability_from_sympy(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(1, 4)
            A = rand_matrix(rng, QQ, n)
            assert diagonalize_finite(A).ok == sympy_rational_diagonalizable(
                [list(r) for r in A.rows])


def _echelon_entry(rng, p):
    """A small or zero scalar, or over Q a fraction with a denominator of up
    to 10^6 and a numerator of either sign."""
    if p is not None:
        return rng.choice([0, 0, 1, p - 1, rng.randrange(p)])
    return rng.choice([Fraction(0), Fraction(0), Fraction(rng.randint(-2, 2)),
                       Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))])


class TestEchelon:
    def test_rank_and_relations_match_oracle(self):
        rng = random.Random(83)
        relations = 0
        for _ in range(150):
            field, p = rng.choice([(QQ, None), (GF(7), 7), (GF(2), 2), (GF(65521), 65521)])
            n = rng.randint(1, 6)
            vecs = [[_echelon_entry(rng, p) for _ in range(n)]
                    for _ in range(rng.randint(1, 8))]
            # scaled copies and sums of earlier vectors give relations with
            # fractional coefficients before the dimension runs out
            for _ in range(rng.randint(0, 3)):
                i, j = rng.randrange(len(vecs)), rng.randrange(len(vecs))
                s = _echelon_entry(rng, p)
                vecs.append([field.add(a, field.mul(s, b)) for a, b in zip(vecs[i], vecs[j])])
            echelon = Echelon(field, track=True)
            added = []
            for v in vecs:
                relation = echelon.add(v)
                if relation is None:
                    added.append(v)
                    continue
                relations += 1
                # the relation holds over the added vectors, the new one last,
                # in field scalars
                assert len(relation) == len(added) + 1 and relation[-1] == field.one
                assert all(field.scalar(c) == c and type(c) is type(field.one)
                           for c in relation)
                for j in range(n):
                    acc = field.zero
                    for c, u in zip(relation, added + [v]):
                        acc = field.add(acc, field.mul(c, u[j]))
                    assert acc == field.zero
            assert len(echelon) == len(added) == plain_rank(vecs, p)
        assert relations >= 100

    def test_makes_no_fraction_arithmetic(self, monkeypatch):
        rng = random.Random(19)
        vecs = [[_echelon_entry(rng, None) for _ in range(6)] for _ in range(5)]
        vecs += [[a - Fraction(3, 7) * b for a, b in zip(vecs[0], vecs[4])]]
        calls = []
        names = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__truediv__", "__rtruediv__")
        for name in names:
            real = getattr(Fraction, name)

            def counted(a, b, real=real):
                calls.append(1)
                return real(a, b)

            monkeypatch.setattr(Fraction, name, counted)
        assert Fraction(2, 3) * 3 - 1 == 1 and len(calls) == 2  # the counter sees both
        calls.clear()
        echelon = Echelon(QQ, track=True)
        results = [echelon.add(v) for v in vecs]
        assert not calls
        monkeypatch.undo()
        assert results[:5] == [None] * 5
        assert results[5] == [Fraction(-1), 0, 0, 0, Fraction(3, 7), 1]

    def test_untracked_reports_dependence_only(self):
        echelon = Echelon(QQ)
        assert echelon.add([1, 0, 3]) is None
        assert echelon.add([0, 0]) == []  # the zero vector is always dependent
        assert echelon.add([2, 0, 6]) == []
        assert echelon.add([1]) is None and len(echelon) == 2

    def test_subspace_residue(self):
        S = Subspace.from_vectors(QQ, 3, [[1, 2, 0], [0, 0, 1]])
        assert S.residue([1, 2, 5]) == [0, 0, 0]
        assert S.residue([0, 1, 0]) == [0, 1, 0]
        assert not S.contains([0, 1, 0]) and S.contains([2, 4, -1])
