"""Dense exact linear algebra over Q and prime fields.

Matrices are immutable (tuples of tuples of scalars); subspaces are stored
as reduced-row-echelon bases, which makes subspace equality a tuple
comparison.  Mod-p row reduction and multiplication go through the flat
int kernels in ``kernels``.  Over Q, products and row reduction are
fraction-free: they run on Python ints (rows cleared of denominators) and
build Fractions only for their results.  Every incremental reduction
(the Krylov chains of matrices over Q and F_p and of infinite operators,
independence tests and basis completion) goes through one ``Echelon``,
which also runs on Python ints: fraction-free over Q, monic rows mod p.

The diagonalization entry points implement the standard criteria: an
operator on a finite-dimensional space is diagonalizable iff its minimal
polynomial splits into distinct linear factors, and a commuting family of
diagonalizable operators is simultaneously diagonalizable by iterated
eigenspace refinement.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import kernels
from .errors import InvariantViolated, NotInvertible, NotSquare, SizeMismatch
from .fields import QQ, Polynomial, _mul, check_same_field, poly_splits_simply


def _primitive(row):
    """An integer row divided by the gcd of its entries (unchanged if zero)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_row(row):
    """A rational row times the lcm of its denominators, made primitive: a
    row of integers passes straight through to the content check."""
    den = lcm(*[x.denominator for x in row])
    if den == 1:
        return _primitive([x.numerator for x in row])
    return _primitive([x.numerator * (den // x.denominator) for x in row])


def _rref_rational(rows, pivot_limit=None):
    """RREF over Q by Gauss-Jordan on Python ints.

    A row scale leaves the RREF unchanged, so each row is cleared of its
    denominators, and each updated row is divided by its content.  Every
    integer row stays a nonzero multiple of the row a Fraction elimination
    would hold, so the pivots, the row swaps and the final rows are the
    same.  Fractions are built once, at the output, and only for nonzero
    entries.
    """
    m = [_integer_row(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0])
    limit = ncols if pivot_limit is None else pivot_limit
    pivots = []
    r = 0
    for c in range(limit):
        pr = r
        while pr < nrows and not m[pr][c]:
            pr += 1
        if pr == nrows:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        row_r = m[r]
        p = row_r[c]
        for i in range(nrows):
            f = m[i][c]
            if not f or i == r:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            m[i] = _primitive([a * x - b * y for x, y in zip(m[i], row_r)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    zero = QQ.zero
    out = []
    for i, row in enumerate(m):
        d = row[pivots[i]] if i < len(pivots) else 1
        if d == 1:
            out.append([Fraction(x) if x else zero for x in row])
        else:
            out.append([Fraction(x, d) if x else zero for x in row])
    return out, pivots


def rref_rows(rows, field, pivot_limit=None):
    """RREF of a list of row vectors: the mod-p kernel over prime fields,
    integer Gauss-Jordan over Q.  pivot_limit restricts pivot search to the
    first columns (for solving augmented systems).  Returns (rows, pivots)
    with rows a list of lists."""
    if not rows:
        return [], []
    if field.char == 0:
        return _rref_rational(rows, pivot_limit)
    nrows, ncols = len(rows), len(rows[0])
    flat = [x for row in rows for x in row]
    out, pivots = kernels.mat_rref_mod(flat, nrows, ncols, field.char, pivot_limit)
    return [out[i * ncols:(i + 1) * ncols] for i in range(nrows)], list(pivots)


class Matrix:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(field.scalar(x) for x in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise SizeMismatch("ragged rows")

    @classmethod
    def _of(cls, field, rows):
        """Internal constructor for rows that are already field scalars of
        one common length (results of the field's own operations): no
        coercion and no shape check."""
        M = object.__new__(cls)
        M.field = field
        M.rows = tuple(map(tuple, rows))
        M.nrows = len(M.rows)
        M.ncols = len(M.rows[0]) if M.rows else 0
        return M

    @classmethod
    def zeros(cls, field, nrows, ncols=None):
        ncols = nrows if ncols is None else ncols
        z = field.zero
        return cls._of(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls._of(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, field, values):
        values = [field.scalar(v) for v in values]
        n = len(values)
        z = field.zero
        return cls._of(field, [[values[i] if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_cols(cls, field, cols):
        if not cols:
            return cls._of(field, [])
        return cls._of(field, zip(*cols))

    @classmethod
    def companion(cls, poly):
        """Companion matrix of a monic polynomial (subdiagonal of ones,
        negated coefficients in the last column)."""
        F = poly.field
        if not poly.is_monic():
            poly = poly.monic()
        n = poly.degree
        z = F.zero
        rows = [[z] * n for _ in range(n)]
        for i in range(1, n):
            rows[i][i - 1] = F.one
        for i in range(n):
            rows[i][n - 1] = F.neg(poly.coeffs[i])
        return cls._of(F, rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def col(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def is_square(self):
        return self.nrows == self.ncols

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __add__(self, other):
        F = check_same_field(self.field, other.field)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise SizeMismatch("matrix addition shape mismatch")
        return Matrix._of(F, [
            [F.add(a, b) for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.rows, other.rows)
        ])

    def __sub__(self, other):
        F = check_same_field(self.field, other.field)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise SizeMismatch("matrix subtraction shape mismatch")
        return Matrix._of(F, [
            [F.sub(a, b) for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.rows, other.rows)
        ])

    def __neg__(self):
        F = self.field
        return Matrix._of(F, [[F.neg(a) for a in row] for row in self.rows])

    def scale(self, c):
        F = self.field
        c = F.scalar(c)
        return Matrix._of(F, [[F.mul(c, a) for a in row] for row in self.rows])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        F = check_same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise SizeMismatch(f"({self.nrows}x{self.ncols}) * ({other.nrows}x{other.ncols})")
        n, m, k = self.nrows, self.ncols, other.ncols
        if F.char > 0:
            flat_a = [x for row in self.rows for x in row]
            flat_b = [x for row in other.rows for x in row]
            out = kernels.mat_mul_mod(flat_a, flat_b, n, m, k, F.char)
            return Matrix._of(F, [out[i * k:(i + 1) * k] for i in range(n)])
        # Over Q, one integer product: each row of self is cleared to its own
        # denominator d, other to one common denominator d_b, so entry (i, j)
        # is an integer sum over (d * d_b).  Zeros are skipped in both
        # operands, and a Fraction is built only for a nonzero output entry.
        bsupport = [[(j, x) for j, x in enumerate(row) if x] for row in other.rows]
        d_b = lcm(*[x.denominator for row in bsupport for _, x in row])
        brows = [[(j, x.numerator * (d_b // x.denominator)) for j, x in row]
                 for row in bsupport]
        zero = F.zero
        out = []
        for arow in self.rows:
            support = [(t, x) for t, x in enumerate(arow) if x]
            d = lcm(*[x.denominator for _, x in support])
            acc = [0] * k
            for t, x in support:
                a = x.numerator * (d // x.denominator)
                for j, b in brows[t]:
                    acc[j] += a * b
            d *= d_b
            if d == 1:
                out.append([Fraction(s) if s else zero for s in acc])
            else:
                out.append([Fraction(s, d) if s else zero for s in acc])
        return Matrix._of(F, out)

    __rmul__ = scale

    def __pow__(self, e):
        if not self.is_square():
            raise NotSquare("matrix power of a non-square matrix")
        result = Matrix.identity(self.field, self.nrows)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def matvec(self, v):
        F = self.field
        if len(v) != self.ncols:
            raise SizeMismatch("matvec length mismatch")
        zero = F.zero
        support = [(j, x) for j, x in enumerate(v) if x]
        out = []
        for row in self.rows:
            acc = zero
            for j, x in support:
                a = row[j]
                if a:
                    acc = F.add(acc, F.mul(a, x))
            out.append(acc)
        return out

    def transpose(self):
        return Matrix._of(self.field, zip(*self.rows))

    def is_zero(self):
        z = self.field.zero
        return all(a == z for row in self.rows for a in row)

    def is_diagonal(self):
        z = self.field.zero
        return all(
            self.rows[i][j] == z
            for i in range(self.nrows)
            for j in range(self.ncols)
            if i != j
        )

    def rank(self):
        if self.nrows == 0 or self.ncols == 0:
            return 0
        _, pivots = rref_rows(self.rows, self.field)
        return len(pivots)

    def kernel_basis(self):
        """Basis of the right null space, one vector per free column,
        re-reduced to RREF rows."""
        F = self.field
        if self.ncols == 0:
            return []
        if self.nrows == 0:
            return [list(r) for r in Matrix.identity(F, self.ncols).rows]
        rows, pivots = rref_rows(self.rows, F)
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [F.zero] * self.ncols
            v[f] = F.one
            for r, c in enumerate(pivots):
                v[c] = F.neg(rows[r][f])
            basis.append(v)
        reduced, _ = rref_rows(basis, F) if basis else ([], [])
        return [list(r) for r in reduced]

    def solve_matrix(self, B):
        """Solve self @ X = B for all columns at once; None if inconsistent."""
        F = self.field
        if B.nrows != self.nrows:
            raise SizeMismatch("solve_matrix shape mismatch")
        aug = [list(r) + list(br) for r, br in zip(self.rows, B.rows)]
        rows, pivots = rref_rows(aug, F, pivot_limit=self.ncols)
        for row in rows[len(pivots):]:
            if any(x != F.zero for x in row[self.ncols:]):
                return None
        out = [[F.zero] * B.ncols for _ in range(self.ncols)]
        for r, c in enumerate(pivots):
            out[c] = rows[r][self.ncols:]
        return Matrix._of(F, out)

    def inverse(self):
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        X = self.solve_matrix(Matrix.identity(self.field, self.nrows))
        if X is None or (self * X) != Matrix.identity(self.field, self.nrows):
            raise NotInvertible("singular matrix")
        return X

    def __repr__(self):
        fmt = self.field.format_scalar
        body = ",".join("[" + ",".join(fmt(x) for x in row) + "]" for row in self.rows)
        return f"[{body}]"


class Subspace:
    """Subspace of K^n stored as an RREF row basis; equality of subspaces is
    equality of the canonical bases."""

    __slots__ = ("field", "ambient", "rows", "_pivots")

    def __init__(self, field, ambient, rref_rows_):
        self.field = field
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rref_rows_)
        self._pivots = None

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        vecs = [[field.scalar(x) for x in v] for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise SizeMismatch("vector length differs from ambient dimension")
        if not vecs:
            return cls(field, ambient, [])
        rows, pivots = rref_rows(vecs, field)
        return cls(field, ambient, rows[: len(pivots)])

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, Matrix.identity(field, ambient).rows)

    @classmethod
    def zero_space(cls, field, ambient):
        return cls(field, ambient, [])

    @property
    def dim(self):
        return len(self.rows)

    def is_zero(self):
        return not self.rows

    def basis_matrix(self):
        return Matrix._of(self.field, self.rows)

    def pivots(self):
        """The pivot column of each basis row."""
        if self._pivots is None:
            zero = self.field.zero
            self._pivots = [next(j for j, x in enumerate(row) if x != zero)
                            for row in self.rows]
        return self._pivots

    def residue(self, vector):
        """vector reduced against the RREF rows: zero at every pivot column,
        and zero altogether exactly when the vector lies in the subspace."""
        F = self.field
        v = list(vector)
        for row, pivot in zip(self.rows, self.pivots()):
            c = v[pivot]
            if c:
                for j in range(pivot, self.ambient):
                    if row[j]:
                        v[j] = F.sub(v[j], F.mul(c, row[j]))
        return v

    def contains(self, vector):
        F = self.field
        v = [F.scalar(x) for x in vector]
        if len(v) != self.ambient:
            raise SizeMismatch("vector length differs from ambient dimension")
        return all(x == F.zero for x in self.residue(v))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.rows))

    def __add__(self, other):
        if self.ambient != other.ambient:
            raise SizeMismatch("subspace sum in different ambient spaces")
        return Subspace.from_vectors(
            self.field, self.ambient, list(self.rows) + list(other.rows)
        )

    def intersection(self, other):
        if self.ambient != other.ambient:
            raise SizeMismatch("subspace intersection in different ambient spaces")
        F = self.field
        if self.is_zero() or other.is_zero():
            return Subspace.zero_space(F, self.ambient)
        combos = Matrix.from_cols(F, self.rows + other.rows).kernel_basis()
        if not combos:
            return Subspace.zero_space(F, self.ambient)
        a = len(self.rows)
        B = Matrix.from_cols(F, self.rows)
        return Subspace.from_vectors(F, self.ambient, [B.matvec(c[:a]) for c in combos])

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient})"


class Echelon:
    """Incremental echelon basis of dense vectors, on Python ints.  Each row
    is keyed by its pivot, the largest index of its support, and is cut
    after it.  With track=True every row also carries its coefficients over
    the vectors that entered the basis, so that a dependent vector yields
    the linear relation it satisfies.

    Over Q a vector is cleared of its denominators, and its scale is the
    starting entry of its relation; rows combine by cross-multiplication
    and are divided by their content (relation included), so each row is a
    nonzero integer multiple of the one a Fraction elimination would hold.
    Over F_p a row is stored monic and reduced mod p."""

    __slots__ = ("field", "rows", "coeffs", "track")

    def __init__(self, field, track=False):
        self.field = field
        self.rows = {}  # pivot -> int row, cut after the pivot
        self.coeffs = {}  # pivot -> its int coefficients over the added vectors
        self.track = track

    def __len__(self):
        return len(self.rows)

    def add(self, vec):
        """Reduce vec, a sequence of field scalars (ints or Fractions over
        Q), against the rows.  A nonzero residue becomes a new row and the
        result is None.  A vec already in the span returns its relation
        instead: c_0 v_0 + ... + c_{k-1} v_{k-1} + vec = 0 over the vectors
        v_i that entered the basis, in order, as the list of field scalars
        [c_0, ..., c_{k-1}, 1] (an empty list unless tracking)."""
        p = self.field.char
        rows, coeffs, track = self.rows, self.coeffs, self.track
        if p:
            w = vec
            rep = [0] * len(rows) + [1] if track else []
        else:
            s = lcm(*[x.denominator for x in vec])
            if s == 1:
                w = [x.numerator for x in vec]
            else:
                w = [x.numerator * (s // x.denominator) for x in vec]
            rep = [0] * len(rows) + [s] if track else []
        for j in range(len(w) - 1, -1, -1):
            f = w[j]
            if not f:
                continue
            row = rows.get(j)
            if row is None:
                if p:
                    inv = pow(f, -1, p)
                    rows[j] = [x * inv % p for x in w[:j + 1]]
                    if track:
                        coeffs[j] = [c * inv % p for c in rep]
                else:
                    rows[j] = w[:j + 1]
                    if track:
                        coeffs[j] = rep
                return None
            # entries above j are zero, so zip cuts w after j
            if p:
                w = [(x - f * y) % p for x, y in zip(w, row)]
                if track:
                    cj = coeffs[j]
                    rep = [(x - f * y) % p for x, y in zip(rep, cj)] + rep[len(cj):]
                continue
            g = gcd(row[j], f)
            a, b = row[j] // g, f // g
            w = [a * x - b * y for x, y in zip(w, row)]
            if track:
                cj = coeffs[j]
                rep = [a * x - b * y for x, y in zip(rep, cj)] + [a * x for x in rep[len(cj):]]
            g = gcd(*w, *rep)
            if g > 1:
                w = [x // g for x in w]
                rep = [x // g for x in rep]
        if p or not track:
            return rep
        lead = rep[-1]
        return [Fraction(x, lead) if x else QQ.zero for x in rep]


# ---------------------------------------------------------------------------
# Minimal polynomials and diagonalization
# ---------------------------------------------------------------------------

def _integer_matrix(T):
    """(delta, A = delta*T on ints): delta is 1 over F_p, T's lcm denominator over Q."""
    if T.field.char:
        return 1, T.rows
    delta = lcm(*[x.denominator for row in T.rows for x in row])
    return delta, [[x.numerator * (delta // x.denominator) for x in row] for row in T.rows]


def _apply(A, v, p):
    """A v for the int matrix A (rows), reduced mod p unless p is 0."""
    return [s % p if p else s for s in (sum(map(mul, row, v)) for row in A)]


def _chain_relation(field, A, v):
    """The monic annihilator of the int vector v under the int matrix A, in field scalars."""
    p = field.char
    echelon = Echelon(field, track=True)
    while (relation := echelon.add(v)) is None:
        v = _apply(A, v, p)
    return relation


def _under_t(field, coeffs, delta):
    """A monic annihilator sum c_k x^k (degree d) under A = delta*T, as the
    one under T: sum c_k delta^(k-d) x^k."""
    d = len(coeffs) - 1
    if delta > 1:
        coeffs = [Fraction(c, delta ** (d - k)) for k, c in enumerate(coeffs)]
    return Polynomial(field, coeffs)


def krylov_annihilators(T):
    """Yield, for i = 0, 1, ..., n-1, the monic minimal polynomial of the
    Krylov chain e_i, T e_i, T^2 e_i, ... of a square matrix T, run on
    A = delta*T (``_integer_matrix``)."""
    F, n = T.field, T.nrows
    delta, A = _integer_matrix(T)
    for i in range(n):
        yield _under_t(F, _chain_relation(F, A, [int(j == i) for j in range(n)]), delta)


def minimal_polynomial(T):
    """Least-degree monic mu with mu(T) = 0, with no polynomial gcd: mu is
    an int list for A = delta*T (``_integer_matrix``), and for each e_i with
    w = mu(A) e_i nonzero (Horner), mu times ann(w) = ann(e_i)/gcd(ann(e_i),
    mu) is lcm(mu, ann(e_i)).  ann(w) divides A's monic integer
    characteristic polynomial, so it is integral (Gauss's lemma)."""
    if not T.is_square():
        raise NotSquare("minimal polynomial of a non-square matrix")
    F, n, p = T.field, T.nrows, T.field.char
    delta, A = _integer_matrix(T)
    mu = [1]
    for i in range(n):
        w = [int(j == i) for j in range(n)]
        for c in reversed(mu[:-1]):
            w = _apply(A, w, p)
            w[i] = (w[i] + c) % p if p else w[i] + c
        if any(w):
            ann = _chain_relation(F, A, w)
            if any(c.denominator != 1 for c in ann):
                raise InvariantViolated("non-integral annihilator of an integer Krylov chain")
            mu = [c % p if p else c for c in _mul(mu, [c.numerator for c in ann])]
            if len(mu) > n:
                break
    return _under_t(F, mu, delta)


def poly_at_matrix(poly, T):
    """poly evaluated at a square matrix, by Horner from the leading
    coefficient times I, each lower coefficient added on the diagonal."""
    if not T.is_square():
        raise NotSquare("polynomial evaluation at a non-square matrix")
    F = check_same_field(poly.field, T.field)
    n = T.nrows
    if not poly.coeffs:
        return Matrix.zeros(F, n)
    acc = Matrix.diagonal(F, [poly.coeffs[-1]] * n)
    for c in reversed(poly.coeffs[:-1]):
        acc = acc * T
        if c != F.zero:
            acc = _plus_scalar(acc, c)
    return acc


def _plus_scalar(M, c):
    """M + c*I for a square M and a field scalar c."""
    F = M.field
    return Matrix._of(F, [
        [F.add(x, c) if i == j else x for j, x in enumerate(row)]
        for i, row in enumerate(M.rows)
    ])


class DiagFiniteResult:
    __slots__ = ("ok", "p", "d", "mu", "eigenvalues")

    def __init__(self, ok, p=None, d=None, mu=None, eigenvalues=None):
        self.ok = ok
        self.p = p
        self.d = d
        self.mu = mu
        self.eigenvalues = eigenvalues

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return f"Diagonalizable(eigenvalues={self.eigenvalues})"
        return f"Not(mu={self.mu})"


def eigenspaces(T, roots):
    """The pairs (lam, ker(T - lam)) with a nonzero kernel, in the order of
    roots; each kernel as its RREF basis rows (``Matrix.kernel_basis``)."""
    F = T.field
    out = []
    for lam in roots:
        basis = _plus_scalar(T, F.neg(lam)).kernel_basis()
        if basis:
            out.append((lam, basis))
    return out


def diagonalize_finite(T):
    """Exact diagonalization: invertible P and diagonal D with P^-1 T P = D,
    eigenvalues in canonical scalar order and eigenvectors per eigenvalue in
    RREF order; or the minimal polynomial as the obstruction."""
    if not T.is_square():
        raise NotSquare("diagonalization of a non-square matrix")
    F = T.field
    n = T.nrows
    mu = minimal_polynomial(T)
    if n == 0:
        return DiagFiniteResult(True, Matrix(F, []), Matrix(F, []), mu, [])
    rep = poly_splits_simply(mu)
    if not rep.splits:
        return DiagFiniteResult(False, mu=mu)
    cols = []
    diag_values = []
    for lam, basis in eigenspaces(T, rep.roots):
        cols += basis
        diag_values += [lam] * len(basis)
    P = Matrix.from_cols(F, cols)
    D = Matrix.diagonal(F, diag_values)
    if len(cols) != n or (T * P) != (P * D):
        raise InvariantViolated("eigenvector certificate T P = P D failed")
    return DiagFiniteResult(True, P, D, mu, rep.roots)


def commutant(gens):
    """The solution space of {X T_i = T_i X} inside the n^2-dimensional
    matrix space, as a Subspace (row-major vectorization).  Always contains
    the identity."""
    if not gens:
        raise SizeMismatch("commutant of an empty generator list")
    F = gens[0].field
    n = gens[0].nrows
    for T in gens:
        check_same_field(F, T.field)
        if not T.is_square() or T.nrows != n:
            raise SizeMismatch("commutant generators must be square of equal size")
    if n == 0:
        return Subspace.zero_space(F, 0)
    constraints = []
    for T in gens:
        for i in range(n):
            for j in range(n):
                row = [F.zero] * (n * n)
                for b in range(n):
                    row[i * n + b] = F.add(row[i * n + b], T.rows[b][j])
                for a in range(n):
                    row[a * n + j] = F.sub(row[a * n + j], T.rows[i][a])
                constraints.append(row)
    M = Matrix._of(F, constraints)
    return Subspace(F, n * n, M.kernel_basis())


def matrix_from_vec(field, flat, n):
    """The n x n matrix whose row-major vectorization is flat."""
    return Matrix(field, [flat[i * n:(i + 1) * n] for i in range(n)])


def matrix_to_vec(M):
    return [x for row in M.rows for x in row]


class SimDiagResult:
    __slots__ = ("ok", "p", "p_inv", "blocks", "reason", "witness")

    def __init__(self, ok, p=None, p_inv=None, blocks=None, reason=None, witness=None):
        self.ok = ok
        self.p = p
        self.p_inv = p_inv
        self.blocks = blocks
        self.reason = reason
        self.witness = witness

    def __bool__(self):
        return self.ok


def _refine_blocks(Ts, roots):
    """Iterated common-eigenspace refinement, roots[k] being the sorted
    roots of the k-th minimal polynomial.  The first T's eigenspaces are the
    first blocks; each later T is restricted to each block and splits it by
    the eigenspaces of the restriction.  Returns a list of (signature,
    columns) pairs; requires every T diagonalizable and the family commuting
    (checked by the callers)."""
    F = Ts[0].field

    def split(X, lams, size):
        spaces = eigenspaces(X, lams)
        if sum(len(basis) for _, basis in spaces) != size:
            raise InvariantViolated(
                "restriction of a diagonalizable operator must stay diagonalizable")
        return spaces

    blocks = [((lam,), basis) for lam, basis in split(Ts[0], roots[0], Ts[0].nrows)]
    for T, lams in zip(Ts[1:], roots[1:]):
        new_blocks = []
        for sig, cols in blocks:
            B = Matrix.from_cols(F, cols)
            X = B.solve_matrix(T * B)
            if X is None:
                raise InvariantViolated("refinement block not invariant")
            for lam, basis in split(X, lams, len(cols)):
                new_blocks.append((sig + (lam,), [B.matvec(c) for c in basis]))
        blocks = new_blocks
    return blocks


def simultaneous_diagonalize_finite(Ts):
    """Joint diagonalization of a commuting family, or a witness: either a
    non-commuting pair of indices or a non-diagonalizable member with its
    minimal polynomial."""
    if not Ts:
        raise SizeMismatch("empty family")
    F = Ts[0].field
    n = Ts[0].nrows
    for T in Ts:
        check_same_field(F, T.field)
        if not T.is_square() or T.nrows != n:
            raise SizeMismatch("family members must be square of equal size")
    for i in range(len(Ts)):
        for j in range(i + 1, len(Ts)):
            if Ts[i] * Ts[j] != Ts[j] * Ts[i]:
                return SimDiagResult(False, reason="noncommuting", witness=(i, j))
    roots = []
    for i, T in enumerate(Ts):
        mu = minimal_polynomial(T)
        rep = poly_splits_simply(mu)
        if not rep.splits:
            return SimDiagResult(False, reason="notdiagonalizable", witness=(i, mu))
        roots.append(rep.roots)
    blocks = _refine_blocks(Ts, roots)
    P = Matrix.from_cols(F, [c for _, block in blocks for c in block])
    Pinv = P.inverse()
    for T in Ts:
        if not (Pinv * T * P).is_diagonal():
            raise InvariantViolated("joint eigenbasis does not diagonalize the family")
    return SimDiagResult(True, p=P, p_inv=Pinv, blocks=blocks)


def joint_eigenprojections(Ts):
    """The refined family of joint eigenprojections of a commuting
    diagonalizable family: one projection per joint eigenvalue signature."""
    result = simultaneous_diagonalize_finite(Ts)
    if not result.ok:
        raise SizeMismatch(f"family not simultaneously diagonalizable: {result.reason}")
    F = Ts[0].field
    n = Ts[0].nrows
    P, Pinv = result.p, result.p_inv
    out = []
    offset = 0
    for sig, block in result.blocks:
        ind = Matrix.zeros(F, n)
        ind_rows = [list(r) for r in ind.rows]
        for t in range(offset, offset + len(block)):
            ind_rows[t][t] = F.one
        proj = P * Matrix._of(F, ind_rows) * Pinv
        out.append((sig, proj))
        offset += len(block)
    return out

