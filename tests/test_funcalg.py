import itertools
import random
from fractions import Fraction

import pytest

from diagalg import funcalg
from diagalg.errors import (
    DoesNotSplitSimply,
    InvariantViolated,
    NotAlgebraHom,
    NotAssociative,
    UnsupportedCharCase,
)
from diagalg.fields import GF, Polynomial, QQ, SplitsReport
from diagalg.funcalg import (
    AlgebraHom,
    FiniteAlgebra,
    FunctionAlgebra,
    SetMap,
    classical_equivalences,
    crt_split,
    double_commutant_check,
    dual_map,
    matrix_algebra,
    poly_quotient_algebra,
    product_algebra,
    quotient_algebra,
    radical,
    radical_of_product,
    regular_representation,
    spec0,
    spec_of_hom,
    upper_triangular_algebra,
)
from diagalg.linalg import Matrix, Subspace

from oracles import count_calls, fraction_matmul, plain_rank, sympy_x_power_mod


def P(field, *coeffs):
    return Polynomial(field, list(coeffs))


def first_nonassociative_triple(field, table, unit):
    """The NotAssociative message for the first failure of the unit laws or
    of (e_i e_j) e_k = e_i (e_j e_k), by plain sums over the structure
    constants; None when there is none."""
    d = len(table)
    F = field

    def dot(terms):
        acc = F.zero
        for a, b in terms:
            acc = F.add(acc, F.mul(a, b))
        return acc

    for k in range(d):
        for left in (True, False):
            for l in range(d):
                v = dot((unit[m], (table[m][k] if left else table[k][m])[l]) for m in range(d))
                if v != (F.one if l == k else F.zero):
                    return "unit laws fail"
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    ij_k = dot((table[i][j][m], table[m][k][l]) for m in range(d))
                    i_jk = dot((table[j][k][m], table[i][m][l]) for m in range(d))
                    if ij_k != i_jk:
                        return f"(e{i} e{j}) e{k} != e{i} (e{j} e{k})"
    return None


class TestSpec0:
    def test_three_points(self):
        ideals = spec0(FunctionAlgebra(QQ, 3))
        assert [m.point for m in ideals] == [0, 1, 2]
        for m in ideals:
            assert len(m.basis) == 2  # codimension one

    def test_zero_algebra(self):
        assert spec0(FunctionAlgebra(QQ, 0)) == []

    def test_single_point(self):
        ideals = spec0(FunctionAlgebra(GF(2), 1))
        assert len(ideals) == 1 and ideals[0].basis == []

    def test_basis_size_without_materializing(self):
        ideals = spec0(FunctionAlgebra(QQ, 4))
        assert [m.basis_size for m in ideals] == [len(m.basis) for m in ideals] == [3] * 4
        assert ideals[1].basis == [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


class TestDuality:
    def test_identity_map(self):
        phi = SetMap.identity(4)
        h = dual_map(phi, QQ)
        assert h.matrix == Matrix.identity(QQ, 4)
        assert spec_of_hom(h) == phi

    def test_collapse_is_diagonal_embedding(self):
        F3 = GF(3)
        phi = SetMap(2, 1, [0, 0])
        h = dual_map(phi, F3)
        # exhaustive check over all of K^1 = F_3: h(f) = (f0, f0)
        for a in range(3):
            assert h.apply((a,)) == (a, a)
        assert spec_of_hom(h) == phi

    def test_composition_law_random(self):
        rng = random.Random(47)
        for _ in range(60):
            field = rng.choice([QQ, GF(3)])
            x, y, z = (rng.randint(1, 6) for _ in range(3))
            phi = SetMap(x, y, [rng.randrange(y) for _ in range(x)])
            psi = SetMap(y, z, [rng.randrange(z) for _ in range(y)])
            left = dual_map(psi.compose(phi), field)
            right = dual_map(phi, field).compose(dual_map(psi, field))
            assert left == right
            # pointwise comparison on indicator functions
            for t in range(z):
                delta = tuple(field.one if k == t else field.zero for k in range(z))
                assert left.apply(delta) == right.apply(delta)

    def test_non_hom_rejected(self):
        with pytest.raises(NotAlgebraHom):
            AlgebraHom(QQ, 2, 2, Matrix(QQ, [[1, 1], [0, 1]]))
        with pytest.raises(NotAlgebraHom):
            AlgebraHom(QQ, 2, 2, Matrix(QQ, [[2, -1], [0, 1]]))

    def test_row_sum_one_in_char_two_is_not_unital(self):
        # 1 + 1 + 1 = 1 over F_2, but the three point masses overlap
        with pytest.raises(NotAlgebraHom, match="overlap"):
            AlgebraHom(GF(2), 3, 1, Matrix(GF(2), [[1, 1, 1]]))
        with pytest.raises(NotAlgebraHom, match="not unital"):
            AlgebraHom(GF(2), 3, 1, Matrix(GF(2), [[0, 0, 0]]))
        with pytest.raises(NotAlgebraHom, match="not idempotent"):
            AlgebraHom(GF(3), 1, 1, Matrix(GF(3), [[2]]))

    def test_hom_of_empty_sets(self):
        phi = SetMap(0, 3, [])
        h = dual_map(phi, GF(2))
        assert spec_of_hom(h) == phi


class TestCrt:
    def test_two_point_split(self):
        split = crt_split(P(QQ, 0, -1, 0, 0) + P(QQ, 0, 0, 1))  # x^2 - x
        assert split.roots == [Fraction(0), Fraction(1)]
        assert split.idempotents[0] == P(QQ, 1, -1)  # 1 - x at root 0
        assert split.idempotents[1] == P(QQ, 0, 1)   # x at root 1

    def test_three_point_split_identities(self):
        f = P(QQ, 0, -1, 0, 1)  # x^3 - x
        split = crt_split(f)
        assert len(split.idempotents) == 3
        # identities are asserted inside crt_split; double check one pair
        # with independent sympy arithmetic
        import sympy
        x = sympy.Symbol("x")
        fs = sympy.Poly(x ** 3 - x, x)
        for e, root in zip(split.idempotents, split.roots):
            es = sympy.Poly(sum(sympy.Rational(c) * x ** k
                                for k, c in enumerate(e.coeffs)), x)
            assert sympy.rem((es * es - es).as_expr(), fs.as_expr(), x) == 0

    def test_non_split_rejected(self):
        with pytest.raises(DoesNotSplitSimply):
            crt_split(P(QQ, 0, 0, 1))
        with pytest.raises(DoesNotSplitSimply):
            crt_split(P(QQ, 1, 0, 1))

    def test_over_prime_field(self):
        F5 = GF(5)
        f = Polynomial.from_roots(F5, [1, 2, 4])
        split = crt_split(f)
        assert split.roots == [1, 2, 4]

    def test_idempotent_laws_against_sympy(self):
        import sympy
        x = sympy.Symbol("x")
        rng = random.Random(17)
        big = 10000000000000061
        for field in (QQ, GF(7), GF(65521)):
            for _ in range(12):
                if field == QQ:
                    pool = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)), Fraction(big),
                            Fraction(-1, big), Fraction(rng.randint(-10**6, 10**6), 999983)]
                    roots = set(rng.sample(pool, rng.randint(1, 4)))
                    roots |= {Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, 3))}
                else:
                    roots = set(rng.sample(range(field.char), rng.randint(1, 6)))
                f = Polynomial.from_roots(field, roots) * rng.randint(1, 6)
                split = crt_split(f)
                assert split.roots == sorted(roots)
                modulus = dict(modulus=field.char) if field.char else {}
                fs = sympy.Poly([sympy.Rational(c) for c in reversed(f.monic().coeffs)], x,
                                **modulus)
                es = [sympy.Poly([sympy.Rational(c) for c in reversed(e.coeffs)] or [0], x,
                                 **modulus) for e in split.idempotents]
                for i, e in enumerate(es):
                    assert (e * e - e).rem(fs).is_zero
                    r = sympy.Rational(split.roots[i])
                    assert (sympy.Poly(x - r, x, **modulus) * e).rem(fs).is_zero
                    for other in es[i + 1:]:
                        assert (e * other).rem(fs).is_zero
                assert (sum(es[1:], es[0]) - 1).rem(fs).is_zero

    def test_evaluation_certificate_checks_every_root(self, monkeypatch):
        # wrong roots [1, 3] for (x - 1)(x - 2): the Lagrange construction
        # still gives e_0(1) = e_1(3) = 1, but e_0(3) = -1
        monkeypatch.setattr(funcalg, "poly_splits_simply",
                            lambda f: SplitsReport(True, roots=[Fraction(1), Fraction(3)]))
        with pytest.raises(InvariantViolated):
            crt_split(Polynomial.from_roots(QQ, [1, 2]))

    def test_makes_no_polynomial_division(self, monkeypatch):
        calls = count_calls(monkeypatch, Polynomial, ("__divmod__",))
        for field, roots in ((QQ, [Fraction(-3, 7), 0, 2, 10000000000000061]),
                             (GF(65521), [0, 5, 65520])):
            split = crt_split(Polynomial.from_roots(field, roots))
            assert split.roots == sorted(roots)
        assert calls == {"__divmod__": 0}


class TestFiniteAlgebra:
    def test_associativity_validated(self):
        field = QQ
        table = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
        FiniteAlgebra(field, table, [1, 0])  # Z/2 group algebra: fine
        # basis 1, x, y with x*x = y, x*y = 1, y*x = y*y = 0:
        # (x x) x = y x = 0 but x (x x) = x y = 1
        e0, e1, e2 = [1, 0, 0], [0, 1, 0], [0, 0, 1]
        zero = [0, 0, 0]
        bad = [[e0, e1, e2], [e1, e2, e0], [e2, zero, zero]]
        with pytest.raises(NotAssociative):
            FiniteAlgebra(field, bad, [1, 0, 0])
        # broken unit law is caught too
        bad_unit = [[[1, 0], [0, 1]], [[1, 0], [1, 0]]]
        with pytest.raises(NotAssociative):
            FiniteAlgebra(field, bad_unit, [1, 0])

    def test_poly_quotient_multiplication(self):
        A = poly_quotient_algebra(QQ, P(QQ, -1, 0, 0, 1))  # x^3 = 1
        x = (0, 1, 0)
        assert A.multiply(x, A.multiply(x, x)) == (1, 0, 0)

    @pytest.mark.parametrize("p", [None, 2, 101])
    def test_poly_quotient_table_matches_sympy(self, p):
        # e_i e_j = x^(i+j) mod f, for non-monic f over Q
        field = QQ if p is None else GF(p)
        rng = random.Random(p)
        for d in range(1, 9):
            if p is None:
                coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)]
                coeffs.append(rng.choice([1, 3]))
            else:
                coeffs = [rng.randrange(p) for _ in range(d)] + [1]
            A = poly_quotient_algebra(field, Polynomial(field, coeffs))
            assert A.unit == tuple(field.scalar(int(k == 0)) for k in range(d))
            for i in range(d):
                for j in range(d):
                    expected = sympy_x_power_mod(i + j, coeffs, p)
                    expected += [0] * (d - len(expected))
                    assert list(A.table[i][j]) == [field.scalar(c) for c in expected]

    @pytest.mark.parametrize("field", [QQ, GF(3)])
    def test_validation_matches_triple_loop(self, field):
        # associative algebras, then each with one structure constant changed,
        # for e_i e_j with i and j outside the unit's support every other time
        # (which keeps the unit laws): the first failure names the error
        rng = random.Random(field.char)
        algebras = [matrix_algebra(field, 2), upper_triangular_algebra(field, 3),
                    poly_quotient_algebra(field, P(field, 1, 2, 0, 1)),
                    product_algebra([matrix_algebra(field, 2), poly_quotient_algebra(
                        field, P(field, 0, 0, 1))])]
        for A in algebras:
            table = [[list(cell) for cell in row] for row in A.table]
            FiniteAlgebra(field, table, A.unit)
            off_unit = [m for m in range(A.dim) if A.unit[m] == field.zero]
            for n in range(20):
                t = [[list(cell) for cell in row] for row in table]
                i, j, k = (rng.randrange(A.dim) for _ in range(3))
                if n % 2:
                    i, j = rng.choice(off_unit), rng.choice(off_unit)
                step = field.scalar(rng.choice([1, -2, Fraction(1, 5)]))
                t[i][j][k] = field.add(t[i][j][k], step)
                expected = first_nonassociative_triple(field, t, A.unit)
                if expected is None:
                    FiniteAlgebra(field, t, A.unit)
                    continue
                with pytest.raises(NotAssociative) as exc:
                    FiniteAlgebra(field, t, A.unit)
                assert str(exc.value) == expected

    def test_matrix_algebra_units(self):
        A = matrix_algebra(QQ, 2)
        e01 = A.basis_element(1)  # unit (0,1)
        e10 = A.basis_element(2)  # unit (1,0)
        assert A.multiply(e01, e10) == A.basis_element(0)
        assert A.multiply(e01, e01) == (0, 0, 0, 0)


class TestRadical:
    def test_dual_numbers(self):
        A = poly_quotient_algebra(QQ, P(QQ, 0, 0, 1))
        J = radical(A)
        assert J.dim == 1 and J.contains([0, 1])

    def test_split_semisimple(self):
        A = poly_quotient_algebra(QQ, P(QQ, -1, 0, 1))  # Q x Q
        assert radical(A).dim == 0

    def test_upper_triangular_against_brute_force(self):
        A = upper_triangular_algebra(QQ, 2)  # basis e00, e01, e11
        J = radical(A)
        # brute-force maximal nilpotent ideal over basis subsets
        best = 0
        best_set = None
        for r in range(1, 4):
            for subset in itertools.combinations(range(3), r):
                vecs = [A.basis_element(i) for i in subset]
                # ideal: closed under left/right multiplication by basis
                def in_span(v):
                    rows = [list(u) for u in vecs]
                    return plain_rank(rows) == plain_rank(rows + [list(v)])
                ideal = all(
                    in_span(A.multiply(A.basis_element(g), v)) and
                    in_span(A.multiply(v, A.basis_element(g)))
                    for g in range(3) for v in vecs)
                if not ideal:
                    continue
                nilpotent = all(A.power(v, 3) == (QQ.zero,) * 3 for v in vecs)
                # products of pairs must stay nilpotent too; dimension <= 1
                if ideal and nilpotent and r > best:
                    best, best_set = r, subset
        assert best == 1 and best_set == (1,)
        assert J.dim == 1 and J.contains([0, 1, 0])

    def test_matrix_algebra_semisimple(self):
        assert radical(matrix_algebra(QQ, 2)).dim == 0

    def test_matches_gram_of_explicit_products(self, monkeypatch):
        # radical reads its trace form from the structure constants: the
        # same kernel as the Gram of explicit products, with no product
        rng = random.Random(16)
        algebras = [upper_triangular_algebra(QQ, 3), matrix_algebra(QQ, 2),
                    product_algebra([upper_triangular_algebra(QQ, 2),
                                     poly_quotient_algebra(QQ, P(QQ, 0, 0, 1))])]
        for _ in range(6):
            roots = [Fraction(rng.randint(-5, 5), rng.choice([1, 2, 7, 10**6]))
                     for _ in range(rng.randint(1, 4))]
            roots += rng.sample(roots, rng.randint(0, len(roots)))  # repeated roots
            algebras.append(poly_quotient_algebra(QQ, Polynomial.from_roots(QQ, roots)))
            coeffs = [Fraction(rng.randint(-9, 9), rng.choice([1, 3, 10**6]))
                      for _ in range(rng.randint(1, 6))]
            algebras.append(poly_quotient_algebra(QQ, Polynomial(QQ, coeffs + [1])))
        products = []
        real = Matrix.__mul__

        def counting(self, other):
            products.append(1)
            return real(self, other)

        for A in algebras:
            lams = [A.lambda_matrix(A.basis_element(i)) for i in range(A.dim)]
            dense = [[list(r) for r in L.rows] for L in lams]
            gram = Matrix(QQ, [[sum((fraction_matmul(Li, Lj)[a][a] for a in range(A.dim)),
                                    Fraction(0)) for Lj in dense] for Li in dense])
            monkeypatch.setattr(Matrix, "__mul__", counting)
            J = radical(A)
            monkeypatch.setattr(Matrix, "__mul__", real)
            assert J == Subspace.from_vectors(QQ, A.dim, gram.kernel_basis())
        assert not products
        assert sum(radical(A).dim > 0 for A in algebras) >= 5  # 7 of the 15 here

    def test_char_p_nilradical(self):
        F2 = GF(2)
        A = poly_quotient_algebra(F2, P(F2, 0, 0, 1))  # F_2[x]/(x^2)
        J = radical(A)
        assert J.dim == 1 and J.contains([0, 1])
        B = poly_quotient_algebra(GF(3), Polynomial.from_roots(GF(3), [0, 1]))
        assert radical(B).dim == 0

    def test_char_p_noncommutative_unsupported(self):
        with pytest.raises(UnsupportedCharCase):
            radical(upper_triangular_algebra(GF(3), 2))

    def test_quotient_semisimple(self):
        A = upper_triangular_algebra(QQ, 3)
        J = radical(A)
        Aq = quotient_algebra(A, J)
        assert radical(Aq).dim == 0
        assert Aq.dim == A.dim - J.dim
        # quotient structure constants still associative
        FiniteAlgebra(QQ, [[list(c) for c in row] for row in Aq.table], list(Aq.unit))

    def test_product_additivity(self):
        A = poly_quotient_algebra(QQ, P(QQ, 0, 0, 1))
        B = poly_quotient_algebra(QQ, P(QQ, 0, 1))  # Q
        rep = radical_of_product([A, B])
        assert rep.ok and rep.factor_dims == [1, 0] and rep.product_dim == 1
        rep2 = radical_of_product([A, upper_triangular_algebra(QQ, 2), B])
        assert rep2.ok and rep2.product_dim == sum(rep2.factor_dims) == 2
        rep3 = radical_of_product([B, B])
        assert rep3.ok and rep3.product_dim == 0

    def test_product_chain_levelwise(self):
        # finite truncations of a product chain: the radical of the partial
        # product is consistent at every level
        parts = [poly_quotient_algebra(QQ, P(QQ, 0, 0, 1)),
                 poly_quotient_algebra(QQ, P(QQ, -1, 0, 1)),
                 upper_triangular_algebra(QQ, 2)]
        for n in range(1, 4):
            rep = radical_of_product(parts[:n])
            assert rep.ok
            assert rep.product_dim == sum(rep.factor_dims)


class TestRegularRepresentation:
    def test_dual_numbers_matrices(self):
        A = poly_quotient_algebra(QQ, P(QQ, 0, 0, 1))
        rep = regular_representation(A)
        assert rep.lambdas[1] == Matrix(QQ, [[0, 0], [1, 0]])
        assert rep.rhos[1] == rep.lambdas[1]  # commutative
        dc = double_commutant_check(A)
        assert dc.commutant_is_rho and dc.double_is_lambda
        assert dc.maximal_commutative and dc.commutant_dim == 2

    def test_split_pair_diagonal(self):
        A = poly_quotient_algebra(QQ, P(QQ, -1, 0, 1))
        dc = double_commutant_check(A)
        assert dc.commutant_is_rho and dc.double_is_lambda and dc.maximal_commutative

    def test_full_matrix_algebra(self):
        A = matrix_algebra(QQ, 2)
        dc = double_commutant_check(A)
        assert dc.commutant_dim == 4  # rho(A) has dimension 4
        assert dc.commutant_is_rho and dc.double_is_lambda
        assert dc.maximal_commutative is None

    def test_noncommutative_upper_triangular(self):
        dc = double_commutant_check(upper_triangular_algebra(QQ, 2))
        assert dc.commutant_is_rho and dc.double_is_lambda


class TestClassicalEquivalences:
    def test_diagonal_with_repeated_eigenvalue(self):
        T = Matrix.diagonal(QQ, [1, 2, 2])
        rep = classical_equivalences(T)
        assert rep.diagonalizable and rep.consistent
        assert rep.algebra_dim == 2  # K[T] = K^2
        assert len(rep.idempotents) == 2
        total = rep.idempotents[0] + rep.idempotents[1]
        assert total == Matrix.identity(QQ, 3)

    def test_nilpotent_jordan_block(self):
        rep = classical_equivalences(Matrix(QQ, [[0, 1], [0, 0]]))
        assert not rep.diagonalizable and not rep.splits
        assert rep.idempotents is None and rep.consistent

    def test_identity_matrix(self):
        rep = classical_equivalences(Matrix.identity(QQ, 3))
        assert rep.diagonalizable and rep.algebra_dim == 1
        assert rep.idempotents == [Matrix.identity(QQ, 3)]

    def test_prime_field_power_identity(self):
        F3 = GF(3)
        rep = classical_equivalences(Matrix(F3, [[0, 1], [1, 0]]))
        assert rep.power_identity is True and rep.diagonalizable

    def test_idempotents_span_verified(self):
        T = Matrix.diagonal(QQ, [1, 2, 3])
        rep = classical_equivalences(T)
        assert rep.algebra_dim == 3 and len(rep.idempotents) == 3
        for E in rep.idempotents:
            assert E * E == E

    def test_minimal_polynomial_computed_once(self, monkeypatch):
        from diagalg import funcalg, linalg
        calls = []
        real = linalg.minimal_polynomial

        def counting(T):
            calls.append(T)
            return real(T)

        monkeypatch.setattr(linalg, "minimal_polynomial", counting)
        monkeypatch.setattr(funcalg, "minimal_polynomial", counting, raising=False)
        for T in (Matrix.diagonal(QQ, [1, 2, 2]), Matrix(QQ, [[0, 1], [0, 0]])):
            calls.clear()
            rep = classical_equivalences(T)
            assert len(calls) == 1 and rep.mu == real(T)

    def test_splitting_decided_once(self, monkeypatch):
        # the verdict of diagonalize_finite is the splitting verdict; only
        # crt_split tests mu again, to build its idempotents
        from diagalg import fields, funcalg, linalg
        calls = []

        def counting(f):
            calls.append(f)
            return fields.poly_splits_simply(f)

        monkeypatch.setattr(linalg, "poly_splits_simply", counting)
        monkeypatch.setattr(funcalg, "poly_splits_simply", counting)
        cases = [(Matrix.diagonal(QQ, [1, 2, 2]), 2), (Matrix(QQ, [[0, 1], [0, 0]]), 1),
                 (Matrix(QQ, [[0, -1], [1, 0]]), 1), (Matrix(GF(3), [[0, 1], [1, 0]]), 2)]
        for T, expected in cases:
            calls.clear()
            rep = classical_equivalences(T)
            assert len(calls) == expected
            assert rep.splits == fields.poly_splits_simply(rep.mu).splits == rep.diagonalizable
            assert rep.consistent
