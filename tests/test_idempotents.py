import random
from fractions import Fraction

import pytest

from diagalg.errors import InvalidFamily, NotSummable
from diagalg.fields import EPSeq, GF, QQ
from diagalg.idempotents import (
    ExplicitFamily,
    PartitionFamily,
    PatternFamily,
    common_eigenvector_search,
    product_family,
    simultaneous_diagonalize_families,
    summability,
    validate,
)
from diagalg.linalg import Matrix
from diagalg.operators import FiniteVector, Operator
from diagalg import treegen

from oracles import dense_from_spec, mat_mul


def paper_pattern_family(field=QQ):
    """E_i = unit(i, 0) + unit(i, i) for i >= 1."""
    return PatternFamily(field, 1, [(1, 0, 0, 0), (1, 0, 1, 0)])


def even_odd(field=QQ):
    return PartitionFamily(field, [], [1, 2])


def mod_k(field, k):
    return PartitionFamily(field, [], list(range(1, k + 1)))


class TestValidate:
    def test_partition_always_valid(self):
        assert validate(even_odd())

    def test_repeated_explicit_member_invalid(self):
        E = Operator.matrix_unit(QQ, 0, 0)
        rep = validate(ExplicitFamily(QQ, [E, E]))
        assert not rep.ok and not rep.witness[2].is_zero()

    def test_pattern_family_valid(self):
        rep = validate(paper_pattern_family())
        assert rep.ok
        # exact cross-check on a handful of members
        fam = paper_pattern_family()
        for i in range(1, 5):
            Ei = fam.member(i)
            assert Ei.is_idempotent()
            for j in range(1, 5):
                if i != j:
                    assert (Ei * fam.member(j)).is_zero()

    def test_pattern_collision_detected(self):
        # members unit(i, i+1) hit column i+1 from row i; member i and
        # member i+1 collide: c(i) = i+1 = r(i+1)
        fam = PatternFamily(QQ, 1, [(1, 0, 1, 1)])
        rep = validate(fam)
        assert not rep.ok

    def test_pattern_isolated_collision_beyond_sample(self):
        # units at (i, 0): E_i E_j has the single collision c(i)=0=r(j) only
        # if some r(j)=0, impossible for j >= 1; but these are not
        # idempotent in the first place
        fam = PatternFamily(QQ, 1, [(1, 0, 0, 0)])
        rep = validate(fam, sample_bound=4)
        assert not rep.ok and "idempotent" in rep.detail

    def test_non_orthogonal_far_collision(self):
        # E_i = unit(2i, 2i) + unit(2i, 4i): cross-collision at j = 2i hits
        # far outside small samples; the symbolic check must catch it
        fam = PatternFamily(QQ, 1, [(2, 0, 2, 0), (2, 0, 4, 0)])
        rep = validate(fam, sample_bound=2)
        assert not rep.ok


class TestSummability:
    def test_singleton_partition_sums_to_identity(self):
        fam = PartitionFamily(QQ, [], [1])
        rep = summability(fam)
        assert rep.summable and rep.sum == Operator.identity(QQ)

    def test_paper_family_not_summable_at_zero(self):
        rep = summability(paper_pattern_family())
        assert not rep.summable and rep.witness_index == 0

    def test_even_odd_sum_against_dense(self):
        fam = even_odd()
        rep = summability(fam)
        assert rep.summable
        ops = fam.members()
        dense = [dense_from_spec(12, {0: ([], [1, 0])}),
                 dense_from_spec(12, {0: ([], [0, 1])})]
        total = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(*dense)]
        assert rep.sum.truncate(12) .rows == tuple(
            tuple(Fraction(x) for x in row) for row in total)
        assert rep.sums_to_one

    def test_summable_pattern_sum(self):
        # units on even positions: E_i = unit(2i, 2i), summable, sum is the
        # even-coordinate projection
        fam = PatternFamily(QQ, 0, [(2, 0, 2, 0)])
        rep = summability(fam)
        assert rep.summable
        assert rep.sum == Operator.diagonal(QQ, EPSeq(QQ, [], [1, 0]))

    def test_support_oracle(self):
        fam = paper_pattern_family()
        assert fam.support_indices(0) == "infinite"
        assert fam.support_indices(3) == {3}
        eo = even_odd()
        assert eo.support_indices(4) == {0}

    def test_explicit_family_always_summable(self):
        ops = [Operator.matrix_unit(QQ, i, i) for i in (0, 2, 5)]
        rep = summability(ExplicitFamily(QQ, ops))
        assert rep.summable and rep.sum.is_idempotent()

    def test_sums_to_one_cases(self):
        assert summability(even_odd()).sums_to_one
        assert not summability(
            ExplicitFamily(QQ, [Operator.matrix_unit(QQ, 0, 0)])).sums_to_one
        assert not summability(paper_pattern_family()).sums_to_one

    def test_invalid_family_rejected(self):
        E = Operator.matrix_unit(QQ, 0, 0)
        with pytest.raises(InvalidFamily):
            summability(ExplicitFamily(QQ, [E, E]))


class TestProducts:
    def test_even_odd_times_mod3_is_mod6(self):
        fam = product_family(even_odd(), mod_k(QQ, 3))
        assert fam.kind == "partition"
        assert len(fam.per) == 6 and len(fam.colors()) == 6
        # dense window oracle on 24 coordinates: pairwise products of the
        # indicator diagonals give the six residue classes mod 6
        members = fam.members()
        member_windows = sorted(
            tuple(tuple(row) for row in m.truncate(24).rows) for m in members)
        expected_windows = sorted(
            tuple(tuple(Fraction(x) for x in row) for row in dense_from_spec(
                24, {0: ([], [1 if k == r else 0 for k in range(6)])}))
            for r in range(6))
        assert member_windows == expected_windows

    def test_identity_singleton_neutral(self):
        fam = even_odd()
        one = ExplicitFamily(QQ, [Operator.identity(QQ)])
        prod = product_family(fam, one)
        assert set(prod.members()) == set(fam.members())

    def test_self_product_is_refinement_fixpoint(self):
        fam = even_odd()
        prod = product_family(fam, fam)
        assert set(prod.members()) == set(fam.members())

    def test_pattern_products_rejected(self):
        with pytest.raises(InvalidFamily):
            product_family(paper_pattern_family(), even_odd())


class TestSimDiagFamilies:
    def test_even_odd_with_mod3(self):
        res = simultaneous_diagonalize_families(even_odd(), mod_k(QQ, 3))
        assert res.ok
        assert summability(res.refined).sums_to_one
        assert len(res.refined.colors()) == 6

    def test_equal_families(self):
        res = simultaneous_diagonalize_families(even_odd(), even_odd())
        assert res.ok and set(res.refined.members()) == set(even_odd().members())

    def test_identity_singleton(self):
        one = ExplicitFamily(QQ, [Operator.identity(QQ)])
        fam = mod_k(QQ, 3)
        res = simultaneous_diagonalize_families(one, fam)
        assert res.ok and set(res.refined.members()) == set(fam.members())

    def test_not_summing_to_one_fails(self):
        part = ExplicitFamily(QQ, [Operator.matrix_unit(QQ, 0, 0)])
        res = simultaneous_diagonalize_families(part, even_odd())
        assert not res.ok

    def test_random_marginals_over_fields(self):
        rng = random.Random(41)
        for _ in range(20):
            field = rng.choice([QQ, GF(2), GF(5)])
            a = PartitionFamily(field,
                                [rng.randint(1, 3) for _ in range(rng.randint(0, 2))],
                                [rng.randint(1, 3) for _ in range(rng.randint(1, 3))])
            b = PartitionFamily(field, [],
                                [rng.randint(1, 2) for _ in range(rng.randint(1, 4))])
            res = simultaneous_diagonalize_families(a, b)
            assert res.ok


class TestSimDiagFamiliesCertifyOnce:
    @staticmethod
    def _split(P):
        I = Operator.identity(QQ)
        return ExplicitFamily(QQ, [P, I - P])

    def test_validates_each_family_once_per_summability(self, monkeypatch):
        from diagalg import idempotents
        calls = []
        real = idempotents.validate

        def counting(family, *args, **kwargs):
            calls.append(family)
            return real(family, *args, **kwargs)

        monkeypatch.setattr(idempotents, "validate", counting)
        E = self._split(Operator.matrix_unit(QQ, 0, 0))
        F = self._split(Operator.diagonal(QQ, EPSeq(QQ, [], [0, 1])))
        res = simultaneous_diagonalize_families(E, F)
        assert res.ok and len(res.refined.ops) == 3
        # once per input family, once for the product family
        assert calls == [E, F, res.refined]
        calls.clear()
        assert set(product_family(E, F).ops) == set(res.refined.ops)
        assert len(calls) == 3
        calls.clear()
        assert simultaneous_diagonalize_families(even_odd(), mod_k(QQ, 3)).ok
        assert len(calls) == 3

    def test_reasons(self):
        unit = Operator.matrix_unit(QQ, 0, 0)
        partial = ExplicitFamily(QQ, [unit])
        # e00 and e00 + e01 are idempotents that do not commute
        skew = self._split(unit + Operator.matrix_unit(QQ, 0, 1))
        diagonal_units = PatternFamily(QQ, 0, [(1, 0, 1, 0)])
        not_idempotent = ExplicitFamily(QQ, [Operator.identity(QQ).scale(2)])
        cases = [
            (partial, even_odd(), "left family does not sum to 1"),
            (even_odd(), partial, "right family does not sum to 1"),
            (self._split(unit), skew, "members 0 and 0 do not commute"),
            (diagonal_units, even_odd(),
             "products of pattern families are not representable"),
            (diagonal_units, skew, "members 0 and 0 do not commute"),
            (not_idempotent, even_odd(), "member 0 is not idempotent"),
            (even_odd(), not_idempotent, "member 0 is not idempotent"),
        ]
        for E, F, reason in cases:
            res = simultaneous_diagonalize_families(E, F)
            assert not res.ok and res.refined is None
            assert res.reason == reason


class TestCommonEigenvector:
    def test_distinct_diagonal_found_at_zero(self):
        D = Operator.diagonal(QQ, EPSeq(QQ, [1, 2, 3], [4]))
        res = common_eigenvector_search([D], truncation=4)
        assert res.found
        assert res.vector.support() == [0]
        assert res.eigenvalues == [Fraction(1)]

    def test_shift_has_no_eigenvectors(self):
        for M in (3, 6, 10):
            res = common_eigenvector_search([Operator.shift(QQ)], truncation=M)
            assert not res.found

    def test_commuting_diagonals_refine(self):
        D1 = Operator.diagonal(QQ, EPSeq(QQ, [1, 1, 2], [2]))
        D2 = Operator.diagonal(QQ, EPSeq(QQ, [0, 5, 5], [5]))
        res = common_eigenvector_search([D1, D2], truncation=3)
        assert res.found
        for T, lam in zip([D1, D2], res.eigenvalues):
            assert T.apply(res.vector) == res.vector.scale(lam)

    def test_tree_idempotents_have_window_eigenvectors(self):
        # at any finite depth the leaf subspaces are common eigenspaces of
        # the whole level family, so the window search finds one; only the
        # infinite family has none
        d = treegen.build(2, 16)
        ops = treegen.idempotent_family(d, 2)
        res = common_eigenvector_search(ops, truncation=16)
        assert res.found
        for T, lam in zip(ops, res.eigenvalues):
            assert T.apply(res.vector) == res.vector.scale(lam)
        assert sorted(res.eigenvalues) == [0, 0, 0, 1]

    def test_restrictions_read_from_the_images(self, monkeypatch):
        # the matrix of T on each invariant subspace comes from the images
        # largest_invariant_subspace already holds: no solve, no second apply
        tree_ops = treegen.idempotent_family(treegen.build(2, 16), 2)
        calls = []
        real = Matrix.solve_matrix
        monkeypatch.setattr(Matrix, "solve_matrix",
                            lambda self, B: calls.append(B) or real(self, B))
        searches = [(tree_ops, 16, True),
                    ([Operator.diagonal(QQ, EPSeq(QQ, [1, 1, 2], [2])),
                      Operator.diagonal(QQ, EPSeq(QQ, [0, 5, 5], [5]))], 3, True),
                    ([Operator.shift(QQ)], 6, False),
                    ([Operator(QQ, {}, {(0, 1): -1, (1, 0): 1})], 2, False)]
        for ops, M, found in searches:
            res = common_eigenvector_search(ops, truncation=M)
            assert res.found == found
            for T, lam in zip(ops, res.eigenvalues or []):
                assert T.apply(res.vector) == res.vector.scale(lam)
        assert calls == []

    def test_mixed_shift_blocks(self):
        # one diagonal and one window-rotation: no common eigenvector in a
        # window of size 2 (rotation has irrational eigenvalues over Q)
        rot = Operator(QQ, {}, {(0, 1): -1, (1, 0): 1})
        res = common_eigenvector_search([rot], truncation=2)
        assert not res.found


class TestSumWindowInvariants:
    def test_partial_sums_match_support_oracle(self):
        # on every window column the sum agrees with the finite partial sum
        # over the members reported by the support oracle, and the sum
        # absorbs each member on both sides
        rng = random.Random(59)
        for _ in range(15):
            field = rng.choice([QQ, GF(3)])
            fam = PartitionFamily(field,
                                  [rng.randint(1, 3) for _ in range(rng.randint(0, 2))],
                                  [rng.randint(1, 3) for _ in range(rng.randint(1, 3))],
                                  {rng.randint(0, 5): rng.randint(1, 3)})
            rep = summability(fam)
            members = fam.members()
            assert rep.sum.is_idempotent()
            for m in members:
                assert rep.sum * m == m and m * rep.sum == m
            for j in range(24):
                e_j = FiniteVector.basis(field, j)
                partial = FiniteVector.zero(field)
                for idx in fam.support_indices(j):
                    partial = partial + members[idx].apply(e_j)
                assert rep.sum.apply(e_j) == partial


class TestSubfamilies:
    def test_subfamily_of_summable_stays_summable(self):
        rng = random.Random(43)
        for _ in range(30):
            field = rng.choice([QQ, GF(3)])
            fam = PartitionFamily(field,
                                  [rng.randint(1, 4) for _ in range(rng.randint(0, 3))],
                                  [rng.randint(1, 4) for _ in range(rng.randint(1, 4))])
            members = fam.members()
            keep = [m for m in members if rng.random() < 0.6]
            sub = ExplicitFamily(field, keep)
            rep = summability(sub)
            assert rep.summable
            expected = Operator.zero(field)
            for m in keep:
                expected = expected + m
            assert rep.sum == expected
