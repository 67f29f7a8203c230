"""Finite function algebras K^X, their duality with finite sets, CRT
idempotent splitting, and radical computations for structure-constant
algebras.

K^X is the product algebra of K-valued tuples on X = {0, ..., n-1} with
pointwise operations.  Its maximal ideals are the vanishing ideals of the
points, algebra maps K^Y -> K^X are exactly the precomposition maps of set
maps X -> Y, and recovering the set map from the algebra map is the inverse
functor; both round trips and the contravariant functor laws are verified
here on concrete data.

Finite-dimensional associative algebras enter by structure constants.  The
radical over Q is the kernel of the trace form (x, y) -> tr(L_xy) of the
left regular representation (characteristic zero makes that exact); over
F_p the nilradical of a commutative algebra is the kernel of the p^k-power
Frobenius map, with p^k at least the dimension.  The regular
representations lambda and rho realize every such algebra as a discrete
algebra of matrices with lambda(A)'' = lambda(A) and, in the commutative
case, lambda(A) its own commutant -- facts checked exactly by the
double-commutant report.
"""

from .errors import (
    DoesNotSplitSimply,
    InvariantViolated,
    NotAlgebraHom,
    NotAssociative,
    NotSquare,
    SizeMismatch,
    UnsupportedCharCase,
)
from .fields import Polynomial, check_same_field, poly_splits_simply
from .linalg import (
    Matrix,
    Subspace,
    commutant,
    diagonalize_finite,
    matrix_from_vec,
    matrix_to_vec,
    poly_at_matrix,
)

# ---------------------------------------------------------------------------
# Function algebras and set duality
# ---------------------------------------------------------------------------


class FunctionAlgebra:
    """The product algebra K^X on the point set X = {0, ..., size-1}."""

    __slots__ = ("field", "size")

    def __init__(self, field, size):
        if size < 0:
            raise ValueError("negative point count")
        self.field = field
        self.size = size

    def one(self):
        return tuple([self.field.one] * self.size)

    def delta(self, x):
        return tuple(self.field.one if i == x else self.field.zero
                     for i in range(self.size))

    def mul(self, f, g):
        return tuple(self.field.mul(a, b) for a, b in zip(f, g))

    def add(self, f, g):
        return tuple(self.field.add(a, b) for a, b in zip(f, g))

    def __eq__(self, other):
        return (isinstance(other, FunctionAlgebra)
                and self.field == other.field and self.size == other.size)

    def __repr__(self):
        return f"{self.field}^{self.size}"


class PointIdeal:
    """Maximal ideal of K^X vanishing at one point, spanned by the
    indicators of the other points; the basis is built only when read."""

    __slots__ = ("algebra", "point")

    def __init__(self, algebra, point):
        self.algebra = algebra
        self.point = point

    @property
    def basis_size(self):
        return self.algebra.size - 1

    @property
    def basis(self):
        A = self.algebra
        return [A.delta(y) for y in range(A.size) if y != self.point]

    def __repr__(self):
        return f"m_{self.point}"


def spec0(A):
    """The open maximal ideals of K^X: one per point, m_x = ker(eval at x)."""
    return [PointIdeal(A, x) for x in range(A.size)]


class SetMap:
    __slots__ = ("domain", "codomain", "images")

    def __init__(self, domain, codomain, images):
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(images)
        if len(self.images) != domain:
            raise SizeMismatch("map must list one image per domain point")
        for y in self.images:
            if not 0 <= y < codomain:
                raise SizeMismatch(f"image {y} outside codomain of size {codomain}")

    @classmethod
    def identity(cls, n):
        return cls(n, n, range(n))

    def compose(self, first):
        """self after first."""
        if first.codomain != self.domain:
            raise SizeMismatch("composition domain mismatch")
        return SetMap(first.domain, self.codomain,
                      [self.images[y] for y in first.images])

    def __call__(self, x):
        return self.images[x]

    def __eq__(self, other):
        return (isinstance(other, SetMap) and self.domain == other.domain
                and self.codomain == other.codomain and self.images == other.images)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.images))

    def __repr__(self):
        return f"map {self.domain}->{self.codomain} {list(self.images)}"


class AlgebraHom:
    """Unital multiplicative linear map K^Y -> K^X, stored as its matrix
    (rows indexed by X, columns by Y); verified at construction."""

    __slots__ = ("field", "dom_size", "cod_size", "matrix")

    def __init__(self, field, dom_size, cod_size, matrix):
        self.field = field
        self.dom_size = dom_size
        self.cod_size = cod_size
        self.matrix = matrix
        if matrix.nrows != cod_size or (cod_size > 0 and matrix.ncols != dom_size):
            raise SizeMismatch("hom matrix shape mismatch")
        self._verify()

    def _verify(self):
        """The images g_y of the point masses must be idempotent, pairwise
        orthogonal and sum to 1.  For 0/1 entries that says exactly: every
        entry satisfies v^2 = v and every row has exactly one nonzero entry,
        which is checked in one pass per row."""
        F = self.field
        zero = F.zero
        for row in self.matrix.rows:
            hit = None
            for y, v in enumerate(row):
                if v == zero:
                    continue
                if F.mul(v, v) != v:
                    raise NotAlgebraHom(f"image of point mass {y} is not idempotent")
                if hit is not None:
                    raise NotAlgebraHom(f"images of point masses {hit} and {y} overlap")
                hit = y
            if hit is None:
                raise NotAlgebraHom("not unital")

    def apply(self, f):
        return tuple(self.matrix.matvec(list(f)))

    def compose(self, first):
        """self after first (as linear maps)."""
        if first.cod_size != self.dom_size:
            raise SizeMismatch("hom composition mismatch")
        if self.cod_size == 0:
            return AlgebraHom(self.field, first.dom_size, 0, Matrix(self.field, []))
        return AlgebraHom(self.field, first.dom_size, self.cod_size,
                          self.matrix * first.matrix)

    def __eq__(self, other):
        return (isinstance(other, AlgebraHom) and self.field == other.field
                and self.dom_size == other.dom_size
                and self.cod_size == other.cod_size
                and self.matrix == other.matrix)

    def __repr__(self):
        return f"hom K^{self.dom_size} -> K^{self.cod_size}"


def dual_map(phi, field):
    """The precomposition algebra map K^Y -> K^X of a set map phi: X -> Y."""
    F = field
    one, zero = F.one, F.zero
    rows = [[one if phi(x) == y else zero for y in range(phi.codomain)]
            for x in range(phi.domain)]
    return AlgebraHom(F, phi.codomain, phi.domain, Matrix._of(F, rows))


def spec_of_hom(h):
    """Recover the set map from an algebra map: each point of X evaluates
    through h at exactly one point of Y.  The AlgebraHom constructor has
    certified that every row has exactly one nonzero entry, with v^2 = v,
    i.e. v = 1, so the point is the column of that entry."""
    images = [next(y for y, v in enumerate(row) if v) for row in h.matrix.rows]
    return SetMap(h.cod_size, h.dom_size, images)


# ---------------------------------------------------------------------------
# CRT splitting of K[x]/(f)
# ---------------------------------------------------------------------------


class CrtSplit:
    __slots__ = ("modulus", "roots", "idempotents")

    def __init__(self, modulus, roots, idempotents):
        self.modulus = modulus
        self.roots = roots
        self.idempotents = idempotents

    def __repr__(self):
        return f"CrtSplit({len(self.idempotents)} idempotents mod {self.modulus})"


def crt_split(f):
    """Lagrange idempotents e_i = prod_{j != i} (x - r_j)/(r_i - r_j) of
    K[x]/(f), f = prod (x - r_j) as certified by poly_splits_simply.  As
    evaluation at the roots maps K[x]/(f) onto K^k and deg e_i < deg f, the
    laws e_i^2 = e_i, e_i e_j = 0, sum e_i = 1 and x e_i = r_i e_i hold
    exactly when e_i(r_j) = delta_ij, which is checked."""
    F = f.field
    rep = poly_splits_simply(f)
    if not rep.splits:
        raise DoesNotSplitSimply(rep.reason)
    f = f.monic()
    roots = rep.roots
    idems = []
    for i, ri in enumerate(roots):
        q = [F.one]  # f/(x - r_i), leading coefficient first
        for c in reversed(f.coeffs[1:-1]):
            q.append(F.add(F.mul(q[-1], ri), c))
        e = Polynomial(F, q[::-1])
        idems.append(e * F.inv(e(ri)))
        if any(idems[i](rj) != (F.one if j == i else F.zero) for j, rj in enumerate(roots)):
            raise InvariantViolated(f"CRT idempotent {i} is not the indicator of root {i}")
    return CrtSplit(f, roots, idems)


# ---------------------------------------------------------------------------
# Structure-constant algebras
# ---------------------------------------------------------------------------


class FiniteAlgebra:
    """Associative unital algebra by structure constants: e_i e_j =
    sum_k table[i][j][k] e_k.  Associativity and the unit laws are checked
    at construction unless the caller vouches for them."""

    __slots__ = ("field", "dim", "table", "unit")

    def __init__(self, field, table, unit, validate=True):
        self.field = field
        self.dim = len(table)
        self.table = tuple(
            tuple(tuple(field.scalar(c) for c in cell) for cell in row)
            for row in table)
        self.unit = tuple(field.scalar(c) for c in unit)
        if len(self.unit) != self.dim:
            raise SizeMismatch("unit vector length differs from dimension")
        for row in self.table:
            if len(row) != self.dim or any(len(cell) != self.dim for cell in row):
                raise SizeMismatch("structure tensor must be dim^3")
        if validate:
            self._validate()

    def _validate(self):
        """Unit laws, then associativity by d + 1 products: C (row (i, j):
        e_i e_j) times [c_mk^l] (row m, column (k, l)) holds (e_i e_j) e_k,
        and C times [c_im^l] holds e_i (e_j e_k) in row (j, k)."""
        F, d = self.field, self.dim
        for i in range(d):
            ei = self.basis_element(i)
            if self.multiply(self.unit, ei) != ei or self.multiply(ei, self.unit) != ei:
                raise NotAssociative("unit laws fail")
        C = Matrix._of(F, [cell for row in self.table for cell in row])
        left = (C * Matrix._of(F, [sum(row, ()) for row in self.table])).rows
        for i in range(d):
            right = (C * Matrix._of(F, self.table[i])).rows
            for j in range(d):
                for k in range(d):
                    if left[i * d + j][k * d:(k + 1) * d] != right[j * d + k]:
                        raise NotAssociative(f"(e{i} e{j}) e{k} != e{i} (e{j} e{k})")

    def multiply(self, x, y):
        F = self.field
        d = self.dim
        out = [F.zero] * d
        for i in range(d):
            xi = x[i]
            if xi == F.zero:
                continue
            row = self.table[i]
            for j in range(d):
                yj = y[j]
                if yj == F.zero:
                    continue
                cell = row[j]
                c = F.mul(xi, yj)
                for k in range(d):
                    if cell[k] != F.zero:
                        out[k] = F.add(out[k], F.mul(c, cell[k]))
        return tuple(out)

    def power(self, x, e):
        acc = self.unit
        base = x
        while e:
            if e & 1:
                acc = self.multiply(acc, base)
            base = self.multiply(base, base)
            e >>= 1
        return acc

    def lambda_matrix(self, x):
        """Matrix of left multiplication by the element x."""
        cols = []
        F = self.field
        for j in range(self.dim):
            ej = tuple(F.one if t == j else F.zero for t in range(self.dim))
            cols.append(list(self.multiply(x, ej)))
        return Matrix.from_cols(F, cols)

    def rho_matrix(self, x):
        """Matrix of right multiplication by the element x."""
        cols = []
        F = self.field
        for j in range(self.dim):
            ej = tuple(F.one if t == j else F.zero for t in range(self.dim))
            cols.append(list(self.multiply(ej, x)))
        return Matrix.from_cols(F, cols)

    def basis_element(self, i):
        F = self.field
        return tuple(F.one if t == i else F.zero for t in range(self.dim))

    def is_commutative(self):
        return all(self.table[i][j] == self.table[j][i]
                   for i in range(self.dim) for j in range(self.dim))

    def __repr__(self):
        return f"FiniteAlgebra(dim {self.dim} over {self.field})"


def poly_quotient_algebra(field, f):
    """K[x]/(f) with basis 1, x, ..., x^(deg-1)."""
    f = f.monic()
    d = f.degree
    if d == 0:
        return FiniteAlgebra(field, [], [], validate=False)
    # x^k mod f for k <= 2d - 2, each from the one before: shift up by one
    # and replace x^d by -(f_0 + ... + f_(d-1) x^(d-1))
    tail = f.coeffs[:d]
    powers = [[field.one] + [field.zero] * (d - 1)]
    for _ in range(2 * d - 2):
        prev = powers[-1]
        top = prev[-1]
        shifted = [field.zero] + prev[:-1]
        powers.append([field.sub(c, field.mul(top, t)) for c, t in zip(shifted, tail)]
                      if top else shifted)
    table = [[powers[i + j] for j in range(d)] for i in range(d)]
    return FiniteAlgebra(field, table, powers[0], validate=False)


def matrix_algebra(field, n):
    """Full matrix algebra M_n by structure constants (basis units e_rs
    in row-major order)."""
    d = n * n
    z, o = field.zero, field.one

    def unit_idx(r, s):
        return r * n + s

    table = [[[z] * d for _ in range(d)] for _ in range(d)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for e in range(n):
                    cell = table[unit_idx(a, b)][unit_idx(c, e)]
                    if b == c:
                        cell[unit_idx(a, e)] = o
    unit = [z] * d
    for a in range(n):
        unit[unit_idx(a, a)] = o
    return FiniteAlgebra(field, table, unit, validate=False)


def upper_triangular_algebra(field, n):
    """Upper triangular n x n matrices by structure constants."""
    pairs = [(r, s) for r in range(n) for s in range(r, n)]
    index = {p: k for k, p in enumerate(pairs)}
    d = len(pairs)
    z, o = field.zero, field.one
    table = [[[z] * d for _ in range(d)] for _ in range(d)]
    for (a, b) in pairs:
        for (c, e) in pairs:
            if b == c:
                cell = table[index[(a, b)]][index[(c, e)]]
                cell[index[(a, e)]] = o
    unit = [z] * d
    for a in range(n):
        unit[index[(a, a)]] = o
    return FiniteAlgebra(field, table, unit, validate=False)


def product_algebra(algebras):
    """Direct product with block structure constants."""
    if not algebras:
        raise SizeMismatch("empty product")
    F = algebras[0].field
    for A in algebras:
        check_same_field(F, A.field)
    d = sum(A.dim for A in algebras)
    z = F.zero
    table = [[[z] * d for _ in range(d)] for _ in range(d)]
    unit = [z] * d
    offset = 0
    for A in algebras:
        for i in range(A.dim):
            unit[offset + i] = A.unit[i]
            for j in range(A.dim):
                cell = table[offset + i][offset + j]
                for k in range(A.dim):
                    cell[offset + k] = A.table[i][j][k]
        offset += A.dim
    return FiniteAlgebra(F, table, unit, validate=False)


def embed_in_product(algebras, index, vector):
    """Coordinates of an element of the index-th factor inside the product."""
    F = algebras[0].field
    out = []
    for k, A in enumerate(algebras):
        out.extend(vector if k == index else [F.zero] * A.dim)
    return tuple(out)


# ---------------------------------------------------------------------------
# Radicals
# ---------------------------------------------------------------------------


def radical(A):
    """Basis of the Jacobson radical as a Subspace of the coordinate space.

    Over Q: the kernel of the trace form (x, y) -> tr(L_{xy}) of the left
    regular representation, which is exactly the radical in characteristic
    zero.  Over F_p: the nilradical of a commutative algebra, the kernel of
    the F_p-linear map x -> x^(p^k) for p^k >= dim; the noncommutative
    char-p case is not supported.
    """
    F = A.field
    d = A.dim
    if d == 0:
        return Subspace.zero_space(F, 0)
    if F.char == 0:
        # tr(L_{e_i} L_{e_j}) = tr(L_{e_i e_j}) (A is associative), read from
        # the structure constants: the sum over k of c_ij^k tr(L_{e_k})
        t = [sum((A.table[k][a][a] for a in range(d)), F.zero) for k in range(d)]
        gram = [[sum((c * tk for c, tk in zip(cell, t)), F.zero) for cell in row]
                for row in A.table]
        return Subspace.from_vectors(F, d, Matrix(F, gram).kernel_basis())
    if not A.is_commutative():
        raise UnsupportedCharCase("char-p radical needs a commutative algebra")
    p = F.char
    q = 1
    while q < d:
        q *= p
    cols = [list(A.power(A.basis_element(i), q)) for i in range(d)]
    frob = Matrix.from_cols(F, cols)
    return Subspace.from_vectors(F, d, frob.kernel_basis())


def quotient_algebra(A, J):
    """A / J for an ideal given as a Subspace: coset representatives are the
    standard basis vectors at the non-pivot coordinates of J's RREF basis."""
    F = A.field
    d = A.dim
    pivots = set(J.pivots())
    rep_coords = [j for j in range(d) if j not in pivots]
    k = len(rep_coords)

    def reduce_mod_j(vec):
        v = J.residue(vec)
        return [v[j] for j in rep_coords]

    table = []
    for a in range(k):
        row = []
        for b in range(k):
            ea = A.basis_element(rep_coords[a])
            eb = A.basis_element(rep_coords[b])
            row.append(reduce_mod_j(A.multiply(ea, eb)))
        table.append(row)
    unit = reduce_mod_j(A.unit)
    return FiniteAlgebra(F, table, unit, validate=False)


class ProductRadicalReport:
    __slots__ = ("ok", "factor_dims", "product_dim")

    def __init__(self, ok, factor_dims, product_dim):
        self.ok = ok
        self.factor_dims = factor_dims
        self.product_dim = product_dim

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return (f"ProductRadicalReport(ok={self.ok}, factors={self.factor_dims}, "
                f"product={self.product_dim})")


def radical_of_product(algebras):
    """Exact check that the radical of a finite product is the product of
    the radicals, with the dimensions of both sides."""
    P = product_algebra(algebras)
    JP = radical(P)
    F = P.field
    expected = []
    dims = []
    for idx, A in enumerate(algebras):
        JA = radical(A)
        dims.append(JA.dim)
        for row in JA.rows:
            expected.append(list(embed_in_product(algebras, idx, row)))
    expected_space = Subspace.from_vectors(F, P.dim, expected)
    return ProductRadicalReport(JP == expected_space, dims, JP.dim)


# ---------------------------------------------------------------------------
# Regular representations and double commutants
# ---------------------------------------------------------------------------


class RegularRepresentation:
    __slots__ = ("algebra", "lambdas", "rhos")

    def __init__(self, algebra, lambdas, rhos):
        self.algebra = algebra
        self.lambdas = lambdas
        self.rhos = rhos


def regular_representation(A):
    """Left and right multiplication matrices on the basis; injective
    because applying to the unit coordinates recovers the element."""
    lambdas = []
    rhos = []
    for i in range(A.dim):
        e = A.basis_element(i)
        lam = A.lambda_matrix(e)
        rho = A.rho_matrix(e)
        if tuple(lam.matvec(list(A.unit))) != e or tuple(rho.matvec(list(A.unit))) != e:
            raise InvariantViolated(f"regular representation of e_{i} misses e_{i} on the unit")
        lambdas.append(lam)
        rhos.append(rho)
    return RegularRepresentation(A, lambdas, rhos)


class DoubleCommutantReport:
    __slots__ = ("commutant_is_rho", "double_is_lambda", "maximal_commutative",
                 "lambda_dim", "commutant_dim")

    def __init__(self, commutant_is_rho, double_is_lambda, maximal_commutative,
                 lambda_dim, commutant_dim):
        self.commutant_is_rho = commutant_is_rho
        self.double_is_lambda = double_is_lambda
        self.maximal_commutative = maximal_commutative
        self.lambda_dim = lambda_dim
        self.commutant_dim = commutant_dim

    def __bool__(self):
        return self.commutant_is_rho and self.double_is_lambda


def double_commutant_check(A):
    """lambda(A)' = rho(A) and lambda(A)'' = lambda(A); for commutative A
    the image is its own commutant (a maximal commutative subalgebra)."""
    F = A.field
    d = A.dim
    rep = regular_representation(A)
    lam_span = Subspace.from_vectors(F, d * d, [matrix_to_vec(m) for m in rep.lambdas])
    rho_span = Subspace.from_vectors(F, d * d, [matrix_to_vec(m) for m in rep.rhos])
    comm = commutant(rep.lambdas)
    double = commutant([matrix_from_vec(F, row, d) for row in comm.rows])
    report = DoubleCommutantReport(
        commutant_is_rho=(comm == rho_span),
        double_is_lambda=(double == lam_span),
        maximal_commutative=(comm == lam_span) if A.is_commutative() else None,
        lambda_dim=lam_span.dim,
        commutant_dim=comm.dim,
    )
    return report


# ---------------------------------------------------------------------------
# The classical equivalences for a single matrix
# ---------------------------------------------------------------------------


class ClassicalReport:
    __slots__ = ("diagonalizable", "mu", "splits", "algebra_dim",
                 "idempotents", "consistent", "power_identity")

    def __init__(self, diagonalizable, mu, splits, algebra_dim, idempotents,
                 consistent, power_identity):
        self.diagonalizable = diagonalizable
        self.mu = mu
        self.splits = splits
        self.algebra_dim = algebra_dim
        self.idempotents = idempotents
        self.consistent = consistent
        self.power_identity = power_identity

    def __bool__(self):
        return self.consistent


def classical_equivalences(T):
    """The three equivalent faces of diagonalizability for one matrix:
    an exact eigenbasis exists; the algebra K[T] is a product of copies of
    K (minimal polynomial splits simply, CRT idempotents realize the
    isomorphism); K[T] is spanned by orthogonal idempotents summing to 1
    (the CRT idempotents evaluated at T).  Over a prime field the verdicts
    are further compared with the identity T^p = T."""
    if not T.is_square():
        raise NotSquare("equivalence report needs a square matrix")
    F = T.field
    n = T.nrows
    diag = diagonalize_finite(T)
    mu = diag.mu
    # diagonalize_finite succeeds exactly when mu splits simply
    splits = diag.ok
    idems = None
    idems_ok = False
    if splits:
        split = crt_split(mu)
        idems = [poly_at_matrix(e, T) for e in split.idempotents]
        total = Matrix.zeros(F, n)
        idems_ok = True
        for i, E in enumerate(idems):
            if E * E != E:
                idems_ok = False
            for j in range(i + 1, len(idems)):
                if not (E * idems[j]).is_zero():
                    idems_ok = False
            total = total + E
        if total != Matrix.identity(F, n):
            idems_ok = False
        # the idempotents span K[T]: count them and check independence
        span = Subspace.from_vectors(F, n * n, [matrix_to_vec(E) for E in idems])
        if span.dim != mu.degree:
            idems_ok = False
    power_identity = None
    if F.char > 0:
        power_identity = (T ** F.char) == T
    consistent = (splits == idems_ok)
    if power_identity is not None:
        consistent = consistent and (diag.ok == power_identity)
    return ClassicalReport(
        diagonalizable=diag.ok,
        mu=mu,
        splits=splits,
        algebra_dim=mu.degree,
        idempotents=idems,
        consistent=consistent,
        power_identity=power_identity,
    )
