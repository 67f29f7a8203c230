import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from diagalg.errors import CapacityExceeded, FieldMismatch, InvariantViolated, ZeroPolynomial
from diagalg.fields import (
    EPSeq,
    GF,
    Polynomial,
    QQ,
    _certify_roots,
    _is_prime,
    poly_roots_in_field,
    poly_splits_simply,
    poly_squarefree_part,
)

from oracles import brute_normalize_ep, gfp_eval, gfp_radical, sympy_rational_roots


def P(field, *coeffs):
    return Polynomial(field, list(coeffs))


class TestFields:
    def test_prime_validation(self):
        with pytest.raises(ValueError):
            GF(4)
        with pytest.raises(ValueError):
            GF(1)
        assert GF(2).char == 2 and GF(97).char == 97

    def test_miller_rabin_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        assert [n for n in range(10 ** 5) if _is_prime(n)] == \
            [n for n in range(10 ** 5) if trial(n)]

    def test_strong_pseudoprime_rejected(self):
        # 151 * 751 * 28351 passes the strong test to bases 2, 3, 5 and 7
        assert 3215031751 == 151 * 751 * 28351
        assert not _is_prime(3215031751)
        with pytest.raises(ValueError):
            GF(3215031751)

    def test_large_primes(self):
        assert GF(10 ** 18 + 3).p == 10 ** 18 + 3
        assert GF(2 ** 61 - 1).char == 2 ** 61 - 1
        with pytest.raises(ValueError):
            GF(2 ** 61 + 1)
        # the Mersenne prime 2^89 - 1 lies beyond the proven range of the
        # 13 Miller-Rabin bases
        with pytest.raises(CapacityExceeded):
            GF(2 ** 89 - 1)

    def test_rational_scalars_reduced(self):
        a = QQ.scalar("6/4")
        assert (a.numerator, a.denominator) == (3, 2)
        assert QQ.format_scalar(Fraction(-3, 2)) == "-3/2"
        assert QQ.parse_scalar("-3/2") == Fraction(-3, 2)

    def test_modp_scalars(self):
        F = GF(7)
        assert F.scalar(-1) == 6
        assert F.format_scalar(3) == "3 mod 7"
        assert F.parse_scalar("10 mod 7") == 3
        with pytest.raises(FieldMismatch):
            F.parse_scalar("1 mod 5")
        assert F.inv(3) == 5

    def test_field_mismatch_guard(self):
        with pytest.raises(FieldMismatch):
            P(QQ, 1) + P(GF(2), 1)


class TestSquarefree:
    def test_repeated_root_over_q(self):
        # x^2 -> x
        assert poly_squarefree_part(P(QQ, 0, 0, 1)) == P(QQ, 0, 1)

    def test_already_squarefree(self):
        f = P(QQ, -1, 0, 1)
        assert poly_squarefree_part(f) == f

    def test_f2_with_pth_power_factor(self):
        # x^3 + x = x (x+1)^2 over F_2; radical is x^2 + x
        F = GF(2)
        f = P(F, 0, 1, 0, 1)
        expected = gfp_radical([0, 1, 0, 1], 2)
        assert expected == [0, 1, 1]
        assert poly_squarefree_part(f) == Polynomial(F, expected)

    def test_derivative_vanishes(self):
        # (x+1)^2 = x^2 + 1 over F_2 has zero derivative
        F = GF(2)
        assert poly_squarefree_part(P(F, 1, 0, 1)) == P(F, 1, 1)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            poly_squarefree_part(Polynomial.zero(QQ))

    def test_squarefree_properties_random(self):
        rng = random.Random(7)
        for _ in range(150):
            p = rng.choice([2, 3, 5, 7])
            F = GF(p)
            f = Polynomial(F, [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1])
            r = poly_squarefree_part(f)
            assert (f % r).is_zero()
            d = r.derivative()
            assert d.is_zero() and r.degree == 0 or r.gcd(d).degree == 0
        for _ in range(100):
            f = Polynomial(QQ, [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))] + [1])
            r = poly_squarefree_part(f)
            assert (f % r).is_zero()
            assert r.gcd(r.derivative()).degree == 0


class TestSplitsSimply:
    def test_symmetric_roots(self):
        rep = poly_splits_simply(P(QQ, -1, 0, 1))
        assert rep.splits and rep.roots == [Fraction(-1), Fraction(1)]

    def test_irreducible_over_f2(self):
        # exhaustive root check: x^2+x+1 has no root among the 2 elements
        assert all(gfp_eval([1, 1, 1], a, 2) != 0 for a in range(2))
        rep = poly_splits_simply(P(GF(2), 1, 1, 1))
        assert not rep.splits

    def test_no_rational_roots(self):
        rep = poly_splits_simply(P(QQ, 1, 0, 1))
        assert not rep.splits

    def test_repeated_factor_rejected(self):
        rep = poly_splits_simply(P(QQ, 0, 0, 1))
        assert not rep.splits and "repeated" in rep.reason

    def test_rational_root_extraction(self):
        f = Polynomial.from_roots(QQ, [Fraction(1, 2), Fraction(-3), Fraction(5)])
        rep = poly_splits_simply(f)
        assert rep.splits
        assert rep.roots == sorted([Fraction(1, 2), Fraction(-3), Fraction(5)])

    def test_agrees_with_exhaustive_enumeration(self):
        rng = random.Random(11)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7])
            F = GF(p)
            deg = rng.randint(1, 6)
            f = Polynomial(F, [rng.randrange(p) for _ in range(deg)] + [1])
            coeffs = list(f.coeffs)
            roots = [a for a in range(p) if gfp_eval(coeffs, a, p) == 0]
            # multiplicity count by repeated deflation
            total_mult = 0
            simple = True
            for a in roots:
                g = f
                mult = 0
                lin = P(F, (-a) % p, 1)
                while (g % lin).is_zero():
                    g = g // lin
                    mult += 1
                total_mult += mult
                if mult > 1:
                    simple = False
            expected = simple and total_mult == f.degree
            rep = poly_splits_simply(f)
            assert rep.splits == expected
            if rep.splits:
                assert rep.roots == sorted(roots)

    def test_roots_in_field_helper(self):
        f = Polynomial.from_roots(QQ, [1, 2]) * P(QQ, 1, 0, 1)
        assert poly_roots_in_field(f) == [Fraction(1), Fraction(2)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 65521])
    def test_root_extraction_matches_exhaustive_evaluation(self, p):
        F = GF(p)
        rng = random.Random(p)
        x = Polynomial.x(F)
        if p == 2:
            irreducible = P(F, 1, 1, 1)
        else:
            nonresidue = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
            irreducible = P(F, -nonresidue, 0, 1)
        cases = [Polynomial(F, [0, -1] + [0] * (p - 2) + [1]),  # x^p - x
                 x, x * (x - Polynomial.one(F))]
        for _ in range(4 if p == 65521 else 40):
            roots = rng.sample(range(p), rng.randint(1, min(p, 6)))
            if rng.random() < 0.3:
                roots.append(0)
            f = Polynomial.from_roots(F, roots)  # a repeated 0 when drawn twice
            if rng.random() < 0.3:
                f = f * Polynomial.from_roots(F, [rng.choice(roots)])
            if rng.random() < 0.3:
                f = f * irreducible
            cases.append(f)
        for f in cases:
            # sparse evaluation at every element, so x^p - x stays cheap
            terms = [(k, c) for k, c in enumerate(f.coeffs) if c]
            roots = [a for a in range(p) if sum(c * pow(a, k, p) for k, c in terms) % p == 0]
            assert poly_roots_in_field(f) == roots
            rep = poly_splits_simply(f)
            assert rep.splits == (len(roots) == f.degree)
            if rep.splits:
                assert rep.roots == roots

    @pytest.mark.parametrize("p", [1_000_033, 2 ** 61 - 1])
    def test_roots_over_primes_too_large_to_scan(self, p):
        F = GF(p)
        roots = sorted({0, 1, 2, 12345, p // 3, p - 1})
        f = Polynomial.from_roots(F, roots)
        rep = poly_splits_simply(f)
        assert rep.splits and rep.roots == roots
        nonresidue = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        g = f * P(F, -nonresidue, 0, 1)
        assert poly_roots_in_field(g) == roots
        assert "irreducible" in poly_splits_simply(g).reason
        assert "repeated" in poly_splits_simply(f * P(F, -2, 1)).reason

    def test_root_certificate_rejects_wrong_roots(self):
        f = list(Polynomial.from_roots(GF(7), [1, 2, 3]).coeffs)
        _certify_roots(f, [1, 2, 3], 7)
        for bad in ([1, 2], [1, 2, 2], [1, 2, 4], [1, 2, 10], [1, 2, 3, 4]):
            with pytest.raises(InvariantViolated):
                _certify_roots(f, bad, 7)
        xp_minus_x = [0, 6, 0, 0, 0, 0, 0, 1]
        _certify_roots(xp_minus_x, list(range(7)), 7)
        with pytest.raises(InvariantViolated):
            _certify_roots(xp_minus_x, [0, 1, 2, 3, 4, 5, 5], 7)
        with pytest.raises(InvariantViolated):
            _certify_roots([1, 6, 0, 0, 0, 0, 0, 1], list(range(7)), 7)

    def test_large_constant_term_decided_exactly(self):
        # nothing is factored, so a 301-bit constant term is no obstacle
        rep = poly_splits_simply(P(QQ, 2 ** 300 + 1, 0, 1))
        assert not rep.splits and rep.reason == "no rational root of residual degree 2"
        r = Fraction(2 ** 300 + 1)
        f = Polynomial.from_roots(QQ, [r, Fraction(-3, 7)])
        assert poly_splits_simply(f).roots == [Fraction(-3, 7), r]
        assert poly_roots_in_field(f * f * P(QQ, 2, 0, 1)) == [Fraction(-3, 7), r]


# primes of 13 to 17 digits, from sympy rather than the package's own test
BIG_PRIMES = [int(sympy.nextprime(10 ** k + 7 ** k)) for k in range(12, 17)]

rational_roots = st.one_of(
    st.builds(Fraction, st.integers(-20, 20)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.builds(Fraction, st.sampled_from(BIG_PRIMES + [-q for q in BIG_PRIMES])),
    st.builds(Fraction, st.sampled_from(BIG_PRIMES), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(BIG_PRIMES)),
)

# irreducible over Q: x^2 - 2, x^2 + 1, x^2 + x + 1, x^2 - q, x^2 + 3x + q
irreducible_quadratics = st.sampled_from(
    [[-2, 0, 1], [1, 0, 1], [1, 1, 1], [-BIG_PRIMES[0], 0, 1], [BIG_PRIMES[4], 3, 1]])


@st.composite
def rational_polynomials(draw):
    """A nonzero scalar times prod (x - r) over drawn rational roots, some
    drawn twice, times x^k (k = 0..3) and up to two irreducible quadratics."""
    roots = draw(st.lists(rational_roots, max_size=5))
    if roots:
        roots += draw(st.lists(st.sampled_from(roots), max_size=2))
    roots += [Fraction(0)] * draw(st.integers(0, 3))
    f = Polynomial.from_roots(QQ, roots)
    for q in draw(st.lists(irreducible_quadratics, max_size=2)):
        f = f * Polynomial(QQ, q)
    scale = draw(st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)))
    return f * (scale if draw(st.booleans()) else -scale)


class TestRationalRootsAgainstSympy:
    """Over Q, roots are found on the monic integer form by Hensel lifting
    from a probe prime; sympy factors the same polynomials."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(rational_polynomials())
    def test_roots_and_reasons(self, f):
        squarefree, roots = sympy_rational_roots(list(f.coeffs))
        assert poly_roots_in_field(f) == (roots if f.degree > 0 else [])
        rep = poly_splits_simply(f)
        if not squarefree:
            assert not rep.splits and rep.reason == "repeated factor"
        elif len(roots) < f.degree:
            assert not rep.splits
            assert rep.reason == f"no rational root of residual degree {f.degree - len(roots)}"
        else:
            assert rep.splits and rep.roots == roots

    def test_big_prime_roots_with_small_ones(self):
        roots = sorted([Fraction(q) for q in BIG_PRIMES] + [Fraction(-1), Fraction(1, 3)])
        f = Polynomial.from_roots(QQ, roots) * Fraction(5, 7)
        assert poly_splits_simply(f).roots == roots
        rep = poly_splits_simply(f * P(QQ, 0, 1))
        assert rep.roots == sorted(roots + [Fraction(0)])
        assert poly_splits_simply(f * P(QQ, 0, 0, 1)).reason == "repeated factor"

    def test_squarefree_past_failed_probes(self):
        # the roots 1..60 are congruent in pairs mod every prime below 60, so
        # each probe below 61 fails and the integer gcd must say squarefree
        roots = [Fraction(r) for r in range(1, 61)]
        assert poly_splits_simply(Polynomial.from_roots(QQ, roots)).roots == roots

    def test_jordan_minimal_polynomials_settle_over_z(self):
        # (x - r)^2 stays non-squarefree mod every prime: after the probes
        # the integer gcd with the derivative decides
        for r in (Fraction(3), Fraction(-7, 2), Fraction(BIG_PRIMES[2], 11)):
            f = Polynomial.from_roots(QQ, [r, r, 1])
            assert poly_splits_simply(f).reason == "repeated factor"
            assert poly_roots_in_field(f) == sorted({r, Fraction(1)})


class TestPolynomialRing:
    def test_divmod_and_gcd(self):
        f = P(QQ, -1, 0, 1)
        g = P(QQ, 1, 1)
        q, r = divmod(f, g)
        assert q * g + r == f and r.is_zero()
        assert f.gcd(g) == P(QQ, 1, 1)


class TestEPSeq:
    def test_constant_add(self):
        a = EPSeq.constant(QQ, 1)
        b = EPSeq.constant(QQ, 2)
        assert a + b == EPSeq.constant(QQ, 3)

    def test_eventually_zero_absorber(self):
        a = EPSeq(QQ, [5], [0])
        b = EPSeq(QQ, [], [2, 3])
        out = a * b
        assert out == EPSeq(QQ, [10], [0])

    def test_interleaved_add_renormalizes(self):
        a = EPSeq(QQ, [], [1, 0])
        b = EPSeq(QQ, [], [0, 1])
        out = a + b
        pre, per = brute_normalize_ep(lambda i: a.at(i) + b.at(i), 4, 4, 13)
        assert (list(out.pre), list(out.per)) == (pre, per)
        assert out == EPSeq.one(QQ)

    def test_normalization_idempotent_and_minimal(self):
        rng = random.Random(3)
        for _ in range(200):
            F = rng.choice([QQ, GF(3)])
            pre = [F.scalar(rng.randint(0, 2)) for _ in range(rng.randint(0, 3))]
            per = [F.scalar(rng.randint(0, 2)) for _ in range(rng.randint(1, 4))]
            s = EPSeq(F, pre, per)
            again = EPSeq(F, list(s.pre), list(s.per))
            assert again == s
            bpre, bper = brute_normalize_ep(s.at, 6, 6, len(pre) + 3 * len(per) + 8)
            assert (list(s.pre), list(s.per)) == (bpre, bper)

    def test_equality_matches_pointwise(self):
        rng = random.Random(5)
        from math import lcm
        for _ in range(200):
            F = GF(5)
            a = EPSeq(F, [rng.randrange(5) for _ in range(rng.randint(0, 2))],
                      [rng.randrange(5) for _ in range(rng.randint(1, 3))])
            b = EPSeq(F, [rng.randrange(5) for _ in range(rng.randint(0, 2))],
                      [rng.randrange(5) for _ in range(rng.randint(1, 3))])
            horizon = len(a.pre) + len(b.pre) + 2 * lcm(len(a.per), len(b.per))
            pointwise = all(a.at(i) == b.at(i) for i in range(horizon))
            assert (a == b) == pointwise

    def test_shift_semantics(self):
        s = EPSeq(QQ, [1, 2], [3, 4])
        shifted = s.shift(3)
        assert [shifted.at(i) for i in range(5)] == [s.at(i + 3) for i in range(5)]
        padded = s.shift(-2)
        assert [padded.at(i) for i in range(6)] == [0, 0, 1, 2, 3, 4]

    def test_period_divides_lcm(self):
        a = EPSeq(QQ, [], [1, 2, 3])
        b = EPSeq(QQ, [], [1, 2])
        out = a * b
        assert 6 % len(out.per) == 0
