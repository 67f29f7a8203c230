"""Differential tests of the banded operator ring against dense windows.

Random operators have band offsets in [-3, 3], preperiods of length <= 5
and periods of length <= 4, over Q, F_2, F_3 and F_101, and never write
below row 0.  Every result is compared with the dense-window oracles, and
every result band's (preperiod, period) with the brute-force normal form.
"""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from diagalg.fields import EPSeq, GF, QQ
from diagalg.operators import FiniteVector, Operator

from oracles import brute_normalize_ep, dense_from_spec, mat_mul, mat_vec, upper_left

FIELDS = [QQ, GF(2), GF(3), GF(101)]
MAX_OFFSET = 3
MAX_PRE = 5
MAX_PER = 4
PERIOD_BOUND = lcm(*range(1, MAX_PER + 1))

ring_settings = settings(max_examples=60, deadline=None, database=None)


def scalars(field):
    if field.char:
        return st.integers(0, field.char - 1)
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def band_specs(draw, field, offset):
    """(pre, per) of raw values for one band; a band below the diagonal
    starts with enough zeros to stay off the negative rows."""
    values = scalars(field)
    pre = draw(st.lists(values, max_size=MAX_PRE))
    per = draw(st.lists(values, min_size=1, max_size=MAX_PER))
    if offset < 0:
        need = -offset
        pre = pre + [per[(j - len(pre)) % len(per)] for j in range(len(pre), need)]
        pre[:need] = [0] * need
    return pre, per


@st.composite
def operator_specs(draw, field):
    offsets = draw(st.sets(st.integers(-MAX_OFFSET, MAX_OFFSET), max_size=4))
    return {d: draw(band_specs(field, d)) for d in sorted(offsets)}


def build(field, spec):
    return Operator(field, {d: EPSeq(field, pre, per) for d, (pre, per) in spec.items()})


def reduce(field, rows):
    p = field.char or None
    return [[x % p if p else x for x in row] for row in rows]


def dense(field, spec, n):
    return reduce(field, dense_from_spec(n, spec))


def check_against_dense(field, T, D, max_offset, pre_bound):
    """T's bands equal the diagonals of the dense window D, value by value
    and in normal form.  D must reach pre_bound + 2 * PERIOD_BOUND columns
    past every row it is read at."""
    horizon = pre_bound + 2 * PERIOD_BOUND
    assert len(D) >= horizon + max_offset
    n = len(D) - max_offset
    assert reduce(field, [[T.entry(i, j) for j in range(n)] for i in range(n)]) == \
        upper_left(D, n)
    assert all(abs(d) <= max_offset for d in T.bands)
    for d in range(-max_offset, max_offset + 1):
        def value(j, d=d):
            return D[j + d][j] if j + d >= 0 else 0

        expect = brute_normalize_ep(value, pre_bound, PERIOD_BOUND, horizon)
        seq = T.bands.get(d, EPSeq.zero(field))
        assert (list(seq.pre), list(seq.per)) == expect, d


@st.composite
def operator_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    return field, draw(operator_specs(field)), draw(operator_specs(field))


@ring_settings
@given(operator_pairs())
def test_sum_matches_dense(case):
    field, sa, sb = case
    n = MAX_PRE + 2 * PERIOD_BOUND + MAX_OFFSET
    Da, Db = dense(field, sa, n), dense(field, sb, n)
    D = reduce(field, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(Da, Db)])
    check_against_dense(field, build(field, sa) + build(field, sb), D, MAX_OFFSET, MAX_PRE)


@ring_settings
@given(operator_pairs())
def test_product_matches_dense(case):
    field, sa, sb = case
    # one factor offset may push the preperiod MAX_OFFSET further
    pre_bound = MAX_PRE + MAX_OFFSET
    n = pre_bound + 2 * PERIOD_BOUND + 3 * MAX_OFFSET
    D = reduce(field, mat_mul(dense(field, sa, n), dense(field, sb, n)))
    check_against_dense(field, build(field, sa) * build(field, sb), D, 2 * MAX_OFFSET,
                        pre_bound)


@ring_settings
@given(st.sampled_from(FIELDS).flatmap(
    lambda F: st.tuples(st.just(F), operator_specs(F), st.integers(0, 3))))
def test_power_matches_dense(case):
    field, spec, k = case
    pre_bound = MAX_PRE + max(k - 1, 0) * MAX_OFFSET
    n = pre_bound + 2 * PERIOD_BOUND + (k + 1) * MAX_OFFSET
    base = dense(field, spec, n)
    D = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        D = reduce(field, mat_mul(D, base))
    check_against_dense(field, build(field, spec) ** k, D, max(k, 1) * MAX_OFFSET,
                        pre_bound)


@ring_settings
@given(st.sampled_from(FIELDS).flatmap(lambda F: st.tuples(
    st.just(F), operator_specs(F),
    st.dictionaries(st.integers(0, 12), scalars(F), max_size=6))))
def test_apply_matches_dense(case):
    field, spec, entries = case
    n = 13 + MAX_OFFSET
    v = FiniteVector(field, entries)
    expect = mat_vec(dense(field, spec, n), v.to_list(n), field.char or None)
    image = build(field, spec).apply(v)
    assert image.max_index() < n
    assert image.to_list(n) == expect
    assert image == FiniteVector(field, dict(enumerate(expect)))


@ring_settings
@given(st.sampled_from(FIELDS).flatmap(lambda F: st.tuples(
    st.just(F), band_specs(F, 0), st.integers(-MAX_OFFSET, MAX_OFFSET))))
def test_shift_matches_dense(case):
    field, (pre, per), d = case
    pre_bound = MAX_PRE + MAX_OFFSET
    horizon = pre_bound + 2 * PERIOD_BOUND
    # the diagonal of the dense window of diag(s) reads s(i)
    D = dense(field, {0: (pre, per)}, horizon + MAX_OFFSET)

    def value(j):
        return D[j + d][j + d] if j + d >= 0 else 0

    shifted = EPSeq(field, pre, per).shift(d)
    assert [shifted.at(j) for j in range(horizon)] == [value(j) for j in range(horizon)]
    assert (list(shifted.pre), list(shifted.per)) == \
        brute_normalize_ep(value, pre_bound, PERIOD_BOUND, horizon)
