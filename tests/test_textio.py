"""Round trips of the text formats: parse(format(x)) == x for every kind of
document, on hypothesis-drawn values over Q, F_2, F_3 and F_101."""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from diagalg import textio
from diagalg.fields import EPSeq, GF, Polynomial, QQ
from diagalg.funcalg import (
    SetMap,
    matrix_algebra,
    poly_quotient_algebra,
    product_algebra,
    upper_triangular_algebra,
)
from diagalg.idempotents import ExplicitFamily, PartitionFamily, PatternFamily
from diagalg.linalg import Matrix, Subspace
from diagalg.operators import FiniteVector, Operator
from diagalg.treegen import TreeDecomposition

FIELDS = [QQ, GF(2), GF(3), GF(101)]

round_trip = settings(max_examples=40, deadline=None, database=None)


def scalars(field):
    if field.char:
        return st.integers(0, field.char - 1)
    return st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


fields = st.sampled_from(FIELDS)


@st.composite
def matrices(draw, field):
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = [draw(st.lists(scalars(field), min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    return Matrix(field, rows)


@st.composite
def vectors(draw, field):
    return FiniteVector(field, draw(st.dictionaries(st.integers(0, 20), scalars(field),
                                                    max_size=5)))


@st.composite
def operators(draw, field):
    bands = {}
    for d in draw(st.sets(st.integers(-2, 3), max_size=3)):
        pre = draw(st.lists(scalars(field), max_size=4))
        per = draw(st.lists(scalars(field), min_size=1, max_size=3))
        if d < 0:
            # a band below the diagonal must not write above row 0
            pre = [field.zero] * -d + pre
        bands[d] = EPSeq(field, pre, per)
    corrections = draw(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                                       scalars(field), max_size=3))
    return Operator(field, bands, corrections)


@st.composite
def families(draw, field):
    kind = draw(st.sampled_from(["partition", "pattern", "explicit"]))
    if kind == "partition":
        colors = st.integers(1, 3)
        return PartitionFamily(field, draw(st.lists(colors, max_size=4)),
                               draw(st.lists(colors, min_size=1, max_size=4)),
                               draw(st.dictionaries(st.integers(0, 6), colors, max_size=2)))
    if kind == "pattern":
        i0 = draw(st.integers(0, 3))
        # positions a*i + b must be nonnegative from the base index on
        term = st.tuples(st.integers(0, 2), st.integers(-4, 4), st.integers(0, 2),
                         st.integers(-4, 4)).filter(
            lambda t: t[0] * i0 + t[1] >= 0 and t[2] * i0 + t[3] >= 0)
        return PatternFamily(field, i0, draw(st.lists(term, min_size=1, max_size=3)))
    return ExplicitFamily(field, draw(st.lists(operators(field), max_size=3)))


def family_key(fam):
    """What a family document records: its field, kind and defining data."""
    if fam.kind == "partition":
        data = (fam.pre, fam.per)
    elif fam.kind == "pattern":
        data = (fam.i0, fam.terms)
    else:
        data = fam.ops
    return fam.field, fam.kind, data


@st.composite
def finite_algebras(draw, field):
    def one():
        kind = draw(st.sampled_from(["quotient", "matrix", "upper"]))
        if kind == "quotient":
            coeffs = draw(st.lists(scalars(field), max_size=3))
            return poly_quotient_algebra(field, Polynomial(field, coeffs + [field.one]))
        if kind == "matrix":
            return matrix_algebra(field, draw(st.integers(1, 2)))
        return upper_triangular_algebra(field, draw(st.integers(1, 3)))

    if draw(st.booleans()):
        return product_algebra([one(), one()])
    return one()


@st.composite
def setmaps(draw):
    domain = draw(st.integers(0, 5))
    codomain = draw(st.integers(1 if domain else 0, 5))
    images = draw(st.lists(st.integers(0, max(codomain - 1, 0)),
                           min_size=domain, max_size=domain))
    return SetMap(domain, codomain, images)


@st.composite
def trees(draw, field):
    """Trees with arbitrary node subspaces: the format does not depend on the
    tree clauses, so the documents are parsed without verification."""
    depth, window = draw(st.integers(0, 2)), draw(st.integers(1, 4))
    vec = st.lists(scalars(field), min_size=window, max_size=window)
    nodes = {}
    for length in range(depth + 1):
        for bits in product("01", repeat=length):
            rows = draw(st.lists(vec, max_size=3))
            nodes["".join(bits)] = Subspace.from_vectors(field, window, rows)
    return TreeDecomposition(field, depth, window, nodes, draw(vec))


@round_trip
@given(st.data())
def test_matrix_polynomial_vector(data):
    field = data.draw(fields)
    M = data.draw(matrices(field))
    assert textio.parse_matrix(field, textio.format_matrix(M)) == M
    poly = Polynomial(field, data.draw(st.lists(scalars(field), max_size=5)))
    assert textio.parse_polynomial(field, textio.format_polynomial(poly)) == poly
    v = data.draw(vectors(field))
    assert textio.parse_vector(field, textio.format_vector(v)) == v


@round_trip
@given(st.data())
def test_operator(data):
    T = data.draw(operators(data.draw(fields)))
    assert textio.parse_operator(textio.format_operator(T)) == T


@round_trip
@given(st.data())
def test_family(data):
    fam = data.draw(families(data.draw(fields)))
    back = textio.parse_family(textio.format_family(fam))
    assert family_key(back) == family_key(fam)


@round_trip
@given(st.data())
def test_finite_algebra(data):
    A = data.draw(finite_algebras(data.draw(fields)))
    back = textio.parse_finite_algebra(textio.format_finite_algebra(A))
    assert (back.field, back.dim, back.table, back.unit) == (A.field, A.dim, A.table, A.unit)


@round_trip
@given(setmaps())
def test_setmap(phi):
    assert textio.parse_setmap(textio.format_setmap(phi)) == phi


@round_trip
@given(st.data())
def test_tree(data):
    d = data.draw(trees(data.draw(fields)))
    back = textio.parse_tree(textio.format_tree(d), verify_on_load=False)
    assert ((back.field, back.depth, back.window, back.nodes, back.w)
            == (d.field, d.depth, d.window, d.nodes, d.w))
