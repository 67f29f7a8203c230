import random
from fractions import Fraction

import pytest

from diagalg import operators
from diagalg.errors import InvariantViolated, WrongField
from diagalg.fields import EPSeq, GF, Polynomial, QQ, poly_splits_simply
from diagalg.linalg import Echelon, Matrix, minimal_polynomial
from diagalg.operators import (
    FiniteVector,
    Operator,
    annihilator_applies,
    closure_membership,
    finite_field_diag_check,
    growth_certificate_data,
    krylov_torsion,
    largest_invariant_subspace,
)
from diagalg.acceptance import random_operator

from oracles import (
    count_calls,
    dense_from_spec,
    krylov_annihilator_dense,
    mat_mul,
    mat_vec,
    sympy_x_power_mod,
    upper_left,
)


def vec(field, *entries):
    return FiniteVector(field, dict(entries))


class TestRepresentation:
    def test_corrections_fold_into_bands(self):
        a = Operator(QQ, {0: EPSeq.constant(QQ, 2)}, {(0, 0): 1})
        b = Operator(QQ, {0: EPSeq(QQ, [3], [2])})
        assert a == b

    def test_band_correction_cancellation(self):
        a = Operator(QQ, {0: EPSeq(QQ, [1], [0])}, {(0, 0): -1})
        assert a.is_zero()

    def test_negative_band_guard(self):
        from diagalg.errors import NegativeIndexLeak
        with pytest.raises(NegativeIndexLeak):
            Operator(QQ, {-1: EPSeq.constant(QQ, 1)})
        # padded version is fine: kills v_0, shifts the rest down
        L = Operator.shift(QQ, -1)
        assert L.apply(FiniteVector.basis(QQ, 0)).is_zero()
        assert L.apply(FiniteVector.basis(QQ, 3)) == FiniteVector.basis(QQ, 2)

    def test_equality_is_canonical(self):
        a = Operator(QQ, {1: EPSeq(QQ, [1, 1], [1])})
        b = Operator.shift(QQ)
        assert a == b


class TestApply:
    def test_shift_moves_basis_vectors(self):
        S = Operator.shift(QQ)
        for i in range(5):
            assert S.apply(FiniteVector.basis(QQ, i)) == FiniteVector.basis(QQ, i + 1)

    def test_zero_operator(self):
        assert Operator.zero(QQ).apply(vec(QQ, (3, 1))).is_zero()

    def test_diagonal_plus_unit_against_dense_window(self):
        T = Operator(QQ, {0: EPSeq.constant(QQ, 2)}, {(0, 0): 1})
        dense = dense_from_spec(20, {0: ([], [2])}, {(0, 0): 1})
        img = T.apply(FiniteVector.basis(QQ, 0))
        assert img.to_list(20) == mat_vec(dense, [1] + [0] * 19)
        assert img == vec(QQ, (0, 3))

    def test_apply_matches_dense_window_randomly(self):
        rng = random.Random(13)
        for _ in range(40):
            field = rng.choice([QQ, GF(3)])
            T = random_operator(rng, field)
            v = FiniteVector(field, {rng.randint(0, 6): field.scalar(rng.randint(1, 2))
                                     for _ in range(3)})
            n = 24
            dense = [[T.entry(i, j) for j in range(n)] for i in range(n)]
            expect = mat_vec(dense, v.to_list(n), field.char or None)
            assert T.apply(v).to_list(n) == [field.scalar(x) for x in expect]


class TestRing:
    def test_shift_square_band(self):
        S = Operator.shift(QQ)
        S2 = S * S
        assert set(S2.bands) == {2}
        assert S2.bands[2] == EPSeq.one(QQ)
        dense = dense_from_spec(30, {1: ([], [1])})
        assert upper_left(mat_mul(dense, dense), 28) == [
            [S2.entry(i, j) for j in range(28)] for i in range(28)]

    def test_additive_identity(self):
        rng = random.Random(17)
        a = random_operator(rng, QQ)
        assert a + Operator.zero(QQ) == a

    def test_unit_idempotent(self):
        assert Operator.matrix_unit(GF(5), 0, 0).is_idempotent()
        assert not Operator.shift(QQ).is_idempotent()

    def test_truncate_shift(self):
        assert Operator.shift(QQ).truncate(3) == Matrix(QQ, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_truncate_diagonal(self):
        D = Operator.diagonal(QQ, EPSeq(QQ, [5], [7]))
        assert D.truncate(3) == Matrix.diagonal(QQ, [5, 7, 7])

    def test_truncation_padding_identity(self):
        S = Operator.shift(QQ)
        S2 = S * S
        padded = S.truncate(6) * S.truncate(6)
        assert Matrix(QQ, [row[:4] for row in padded.rows[:4]]) == S2.truncate(4)

    def test_product_oracle_small_windows(self):
        rng = random.Random(19)
        for _ in range(40):
            field = rng.choice([QQ, GF(2), GF(5)])
            A = random_operator(rng, field)
            B = random_operator(rng, field)
            pad = max(0, A.max_offset(), B.max_offset())
            n = 16
            dense = A.truncate(n + pad) * B.truncate(n + pad)
            top = Matrix(field, [row[:n] for row in dense.rows[:n]])
            assert (A * B).truncate(n) == top

    def test_commuting_polynomial_algebra_on_window(self):
        # commuting operators stay commuting through products: polynomials
        # in one operator pairwise commute, checked on an 8-window of
        # applications
        rng = random.Random(23)
        for _ in range(10):
            field = rng.choice([QQ, GF(3)])
            T = random_operator(rng, field)
            polys = []
            for _ in range(3):
                coeffs = [field.scalar(rng.randint(0, 2)) for _ in range(3)]
                acc = Operator.zero(field)
                power = Operator.identity(field)
                for c in coeffs:
                    acc = acc + power.scale(c)
                    power = power * T
                polys.append(acc)
            for a in polys:
                for b in polys:
                    lhs = a * b
                    rhs = b * a
                    assert lhs == rhs
                    for j in range(8):
                        e = FiniteVector.basis(field, j)
                        assert lhs.apply(e) == rhs.apply(e)


class TestFiniteFieldCheck:
    def test_identity_diagonalizable(self):
        assert finite_field_diag_check(Operator.identity(GF(3)))

    def test_shift_not_diagonalizable(self):
        assert not finite_field_diag_check(Operator.shift(GF(2)))

    def test_unit_projection(self):
        assert finite_field_diag_check(Operator.matrix_unit(GF(5), 0, 0))

    def test_wrong_field(self):
        with pytest.raises(WrongField):
            finite_field_diag_check(Operator.shift(QQ))

    def test_agrees_with_window_minimal_polynomial(self):
        # eventually diagonal operators decompose as window + diagonal tail,
        # so the T^p = T test must match mu | x^p - x on a faithful window
        rng = random.Random(29)
        for _ in range(25):
            p = rng.choice([2, 3, 5])
            field = GF(p)
            diag = EPSeq(field, [rng.randrange(p) for _ in range(2)],
                         [rng.randrange(p) for _ in range(2)])
            corr = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randrange(p)
                    for _ in range(2)}
            T = Operator(field, {0: diag}, corr)
            m = max(4, T.preperiod_bound()) + 2
            window = T.truncate(m)
            mu = list(minimal_polynomial(window).coeffs)
            window_ok = sympy_x_power_mod(p, mu, p) == sympy_x_power_mod(1, mu, p)
            assert finite_field_diag_check(T) == window_ok


class TestTorsion:
    def test_shift_vector_certified_free(self):
        rep = krylov_torsion(Operator.shift(QQ), FiniteVector.basis(QQ, 0))
        assert rep.outcome == "non_torsion"
        assert rep.certificate["top_offset"] == 1

    def test_constant_diagonal_torsion(self):
        lam = Fraction(3)
        D = Operator.diagonal(QQ, EPSeq.constant(QQ, lam))
        rep = krylov_torsion(D, vec(QQ, (0, 1), (4, 2)))
        assert rep.outcome == "torsion"
        assert rep.annihilator == Polynomial(QQ, [-lam, 1])

    def test_shift_with_feedback_against_dense_krylov(self):
        # bands {+1: const 1} plus correction (0,1) -> 1, applied at v_0
        T = Operator(QQ, {1: EPSeq.constant(QQ, 1)}, {(0, 1): 1})
        rep = krylov_torsion(T, FiniteVector.basis(QQ, 0), depth=40)
        dense = dense_from_spec(45, {1: ([], [1])}, {(0, 1): 1})
        oracle = krylov_annihilator_dense(dense, [1] + [0] * 44, 40)
        assert oracle is None and rep.outcome == "non_torsion"

    def test_torsion_annihilator_verified_against_dense(self):
        # nilpotent tail-free block: v_0 -> v_1 -> 0 plus zero tail
        T = Operator(QQ, {1: EPSeq(QQ, [1], [0])})
        rep = krylov_torsion(T, FiniteVector.basis(QQ, 0))
        assert rep.outcome == "torsion"
        dense = dense_from_spec(10, {1: ([1], [0])})
        oracle = krylov_annihilator_dense(dense, [1] + [0] * 9, 8)
        assert list(rep.annihilator.coeffs) == oracle == [0, 0, 1]

    def test_certificate_revalidates_ten_steps(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(40):
            field = rng.choice([QQ, GF(3)])
            T = random_operator(rng, field)
            v = FiniteVector.basis(field, rng.randint(0, 3))
            rep = krylov_torsion(T, v, depth=24)
            if rep.outcome == "torsion":
                assert annihilator_applies(T, v, rep.annihilator)
            elif rep.outcome == "non_torsion":
                checked += 1
                w = v
                for _ in range(rep.certificate["step"]):
                    w = T.apply(w)
                last = w.max_index()
                for _ in range(10):
                    w = T.apply(w)
                    assert w.max_index() > last
                    last = w.max_index()
        assert checked > 0

    def test_fractional_bands_against_dense_window(self):
        # random operators with fractional band and correction values (and
        # some over F_65521); the window holds every index the chain can
        # reach in depth steps, so the dense oracle is exact there, and
        # whenever it finds an annihilator the probe reports the same one
        rng = random.Random(47)
        depth = 10
        compared = 0
        for _ in range(150):
            field, p = rng.choice([(QQ, None), (QQ, None), (GF(65521), 65521)])

            def scal():
                if p is not None:
                    return rng.choice([0, rng.randrange(p)])
                return rng.choice([Fraction(0), Fraction(rng.randint(-3, 3),
                                                         rng.choice([1, 2, 7, 10**6]))])

            spec = {}
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(-2, 2)
                # a band below the diagonal starts with zeros
                spec[d] = ([0] * max(0, -d) + [scal() for _ in range(rng.randint(0, 2))],
                           [scal() for _ in range(rng.randint(1, 3))])
            corr = {(rng.randint(0, 4), rng.randint(0, 4)): scal()
                    for _ in range(rng.randint(0, 3))}
            T = Operator(field, {d: EPSeq(field, pre, per) for d, (pre, per) in spec.items()},
                         corr)
            v = FiniteVector(field, {rng.randint(0, 4): scal() or 1
                                     for _ in range(rng.randint(1, 3))})
            window = 5 + depth * max(0, max(spec)) + 1
            dense = dense_from_spec(window, spec, corr)
            oracle = krylov_annihilator_dense(dense, v.to_list(window), depth, p)
            rep = krylov_torsion(T, v, depth=depth)
            if oracle is None:
                assert rep.outcome != "torsion"
                continue
            compared += 1
            assert rep.outcome == "torsion" and rep.depth_used == len(oracle) - 1
            assert list(rep.annihilator.coeffs) == oracle
        assert compared >= 60

    def test_unknown_when_depth_exhausted(self):
        # periodic-band operator whose leading band has zeros in the period:
        # the growth certificate never fires and v_0 cycles upward slowly
        T = Operator(QQ, {1: EPSeq(QQ, [], [1, 1, 1])}, {(0, 2): 1})
        rep = krylov_torsion(T, FiniteVector.basis(QQ, 0), depth=3)
        assert rep.outcome in ("unknown", "torsion", "non_torsion")
        # period with zeros in the leading band: never certified, never
        # dependent here, so the probe must admit ignorance
        shallow = krylov_torsion(
            Operator(QQ, {2: EPSeq(QQ, [], [1, 0])}), FiniteVector.basis(QQ, 0),
            depth=2)
        assert shallow.outcome == "unknown"

    def test_failed_annihilator_check_raises(self, monkeypatch):
        # the certificate check must run even under python -O
        monkeypatch.setattr(operators, "annihilator_applies", lambda T, v, poly: False)
        D = Operator.diagonal(QQ, EPSeq.constant(QQ, 3))
        with pytest.raises(InvariantViolated):
            krylov_torsion(D, FiniteVector.basis(QQ, 0))


class TestClosure:
    def test_shift_over_q_exact(self):
        rep = closure_membership(Operator.shift(QQ), [FiniteVector.basis(QQ, 0)])
        assert rep.outcome == "in_closure" and not rep.semi_decided

    def test_shift_over_f2(self):
        rep = closure_membership(Operator.shift(GF(2)), [])
        assert rep.outcome == "not_in_closure" and not rep.semi_decided

    def test_embedded_nilpotent_block(self):
        J = Operator(QQ, {1: EPSeq(QQ, [1], [0])})
        rep = closure_membership(J, [FiniteVector.basis(QQ, 0)])
        assert rep.outcome == "not_in_closure"
        assert rep.witness_annihilator == Polynomial(QQ, [0, 0, 1])
        assert annihilator_applies(J, rep.witness, rep.witness_annihilator)

    def test_semisimple_head_with_growth_tail(self):
        # diagonalizable head (v_0 <-> v_1 swap via corrections) then shift
        T = Operator(QQ, {1: EPSeq(QQ, [0, 0], [1])}, {(0, 1): 1, (1, 0): 1})
        rep = closure_membership(T, [FiniteVector.basis(QQ, 0)])
        assert rep.outcome == "in_closure" and not rep.semi_decided

    def test_growth_route_witness_matches_krylov_probe(self):
        # head v_0 .. v_{theta-1} invariant (diagonal 1x1 blocks, then a
        # random block), a shift beyond it; the witness must be the first
        # torsion-basis row whose Krylov probe on T gives an annihilator
        # that fails to split simply, whatever the depth: depth bounds the
        # window route only
        rng = random.Random(71)
        outcomes = []
        leading_rows_skipped = False
        beyond_depth = False
        for _ in range(120):
            theta = rng.randint(2, 5)
            k = rng.randint(0, theta - 1)
            corr = {(i, i): rng.randint(-2, 2) for i in range(k)}
            for i in range(k, theta):
                for j in range(k, theta):
                    if rng.random() < 0.6:
                        corr[(i, j)] = Fraction(rng.randint(-2, 2), rng.choice([1, 1, 3]))
            T = Operator(QQ, {theta: EPSeq(QQ, [0] * theta, [1])}, corr)
            depth = rng.choice([1, 2, 3, 64, 64])
            identity = [[int(i == j) for j in range(theta)] for i in range(theta)]
            expected = None
            rows, _X = largest_invariant_subspace(T, identity, growth_certificate_data(T)[1])
            for row in rows:
                v = FiniteVector(QQ, dict(enumerate(row)))
                probe = krylov_torsion(T, v)
                if (probe.outcome == "torsion"
                        and not poly_splits_simply(probe.annihilator).splits):
                    expected = (v, probe.annihilator)
                    break
            rep = closure_membership(T, [FiniteVector.basis(QQ, 0)], depth)
            outcomes.append(rep.outcome)
            assert (rep.outcome == "not_in_closure") == (expected is not None)
            if expected is not None:
                assert (rep.witness, rep.witness_annihilator) == expected
                leading_rows_skipped |= min(rep.witness.entries) > 0
                beyond_depth |= rep.witness_annihilator.degree > depth
        assert outcomes.count("not_in_closure") >= 20 and "in_closure" in outcomes
        assert leading_rows_skipped and beyond_depth

    def test_growth_route_solves_nothing(self, monkeypatch):
        # X is read from the images largest_invariant_subspace computed
        calls = []
        real = Matrix.solve_matrix
        monkeypatch.setattr(Matrix, "solve_matrix",
                            lambda self, B: calls.append(B) or real(self, B))
        rng = random.Random(79)
        outcomes = set()
        for _ in range(40):
            theta = rng.randint(1, 5)
            corr = {(i, j): rng.randint(-1, 1) for i in range(theta) for j in range(theta)
                    if rng.random() < 0.5}
            T = Operator(QQ, {theta: EPSeq(QQ, [0] * theta, [1])}, corr)
            outcomes.add(closure_membership(T, [FiniteVector.basis(QQ, 0)]).outcome)
        assert outcomes == {"in_closure", "not_in_closure"} and calls == []

    def test_invariant_subspace_matrix_of_t(self):
        # X's column j holds the coordinates of T applied to row j
        rng = random.Random(73)
        for _ in range(30):
            theta = rng.randint(1, 5)
            corr = {(i, j): rng.randint(-2, 2) for i in range(theta) for j in range(theta)
                    if rng.random() < 0.5}
            T = Operator(QQ, {theta: EPSeq(QQ, [0] * theta, [1])}, corr)
            identity = [[QQ.scalar(int(i == j)) for j in range(theta)] for i in range(theta)]
            rows, X = largest_invariant_subspace(T, identity, theta)
            assert X.nrows == X.ncols == len(rows)
            for j, row in enumerate(rows):
                img = T.apply(FiniteVector(QQ, dict(enumerate(row))))
                combo = [sum((X[i, j] * r[c] for i, r in enumerate(rows)), Fraction(0))
                         for c in range(theta)]
                assert img == FiniteVector(QQ, dict(enumerate(combo)))

    def test_window_route_semi_decided(self):
        # no positive band: decision rests on the supplied window only
        D = Operator.diagonal(QQ, EPSeq(QQ, [], [1, 2]))
        rep = closure_membership(D, [FiniteVector.basis(QQ, 0)])
        assert rep.outcome == "in_closure" and rep.semi_decided

    # (bands {offset: (pre, per)}, corrections, window indices, whether the
    # window route answers, outcome, semi_decided, witness index or None)
    CASES = [
        # the shift: its growth certificate decides
        ({1: ([], [1])}, {}, [0], False, "in_closure", False, None),
        # a shift of the even indices: no certificate, and v_0 never dies
        ({2: ([], [1, 0])}, {}, [0], True, "unknown", True, None),
        # a two-value diagonal: every window vector is torsion, split simply
        ({0: ([], [1, 2])}, {}, [0, 1], True, "in_closure", True, None),
        # the shift with a nilpotent head, v_1 -> v_0 -> 0
        ({1: ([0, 0], [1])}, {(0, 1): 1}, [0, 1, 2], False, "not_in_closure", False, 1),
        # the same head before a shift of the even indices: v_1 has
        # annihilator x^2, and v_2 never dies
        ({2: ([0, 0], [1, 0])}, {(0, 1): 1}, [0, 1], True, "not_in_closure", False, 1),
        # v_2 is left unresolved, but v_1's verified annihilator x^2 is an
        # exact witness, whichever of the two comes first in the window
        ({2: ([0, 0], [1, 0])}, {(0, 1): 1}, [1, 2], True, "not_in_closure", False, 1),
        ({2: ([0, 0], [1, 0])}, {(0, 1): 1}, [2, 1], True, "not_in_closure", False, 1),
    ]

    @pytest.mark.parametrize(
        "bands, corr, window, window_route, outcome, semi, witness", CASES,
        ids=["shift", "even-shift", "two-value-diagonal", "nilpotent-head",
             "nilpotent-head-even-shift", "nilpotent-head-unresolved",
             "nilpotent-head-unresolved-first"])
    def test_window_cases(self, bands, corr, window, window_route, outcome, semi,
                          witness):
        T = Operator(QQ, {d: EPSeq(QQ, pre, per) for d, (pre, per) in bands.items()}, corr)
        assert (growth_certificate_data(T) is None) == window_route
        rep = closure_membership(T, [FiniteVector.basis(QQ, i) for i in window])
        assert (rep.outcome, rep.semi_decided) == (outcome, semi)
        if witness is None:
            assert rep.witness is None and rep.witness_annihilator is None
            return
        assert rep.witness == FiniteVector.basis(QQ, witness)
        assert rep.witness_annihilator == Polynomial(QQ, [0, 0, 1])
        # dense oracle on a window wide enough for the head
        dense = dense_from_spec(12, bands, corr)
        e = [int(i == witness) for i in range(12)]
        assert krylov_annihilator_dense(dense, e, 8) == [0, 0, 1]

    def test_window_route_builds_only_the_probes(self, monkeypatch):
        # one Echelon per Krylov probe of a window vector, and no basis of
        # the torsion span besides
        built = count_calls(monkeypatch, Echelon, ("__init__",))
        probes = count_calls(monkeypatch, operators, ("krylov_torsion",))
        D = Operator.diagonal(QQ, EPSeq(QQ, [], [1, 2]))
        window = [vec(QQ, (0, 1)), vec(QQ, (1, 1)), vec(QQ, (0, 1), (3, 1))]
        rep = closure_membership(D, window)
        assert rep.outcome == "in_closure" and rep.semi_decided
        assert probes == {"krylov_torsion": 3} and built == {"__init__": 3}

    def test_fp_total_matches_power_test(self):
        rng = random.Random(37)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            T = random_operator(rng, GF(p))
            rep = closure_membership(T, [])
            assert (rep.outcome == "in_closure") == finite_field_diag_check(T)
            assert not rep.semi_decided

    def test_window_required_over_q(self):
        with pytest.raises(ValueError):
            closure_membership(Operator.shift(QQ), [])


class TestGrowthCertificate:
    def test_requires_positive_band(self):
        assert growth_certificate_data(Operator.diagonal(QQ, EPSeq.constant(QQ, 1))) is None
        assert growth_certificate_data(Operator.shift(QQ)) == (1, 0)

    def test_requires_nowhere_zero_period(self):
        T = Operator(QQ, {1: EPSeq(QQ, [], [1, 0])})
        assert growth_certificate_data(T) is None


class TestProductLeak:
    def test_leaking_product_is_an_internal_error(self, monkeypatch, capsys):
        # a windowed read that forgets the zero padding at negative indices
        # makes T * T write row -1
        from diagalg import cli
        values = EPSeq.values
        monkeypatch.setattr(EPSeq, "values",
                            lambda self, start, count: values(self, max(start, 0), count))
        T = Operator(GF(2), {-1: EPSeq(GF(2), [0], [1])})
        with pytest.raises(InvariantViolated):
            T * T
        code = cli.main(["diag-ffield", "--text", "field F2\nband -1: pre=[0] per=[1]"])
        assert code == 4
        assert '"verdict": "internal_error"' in capsys.readouterr().out
