"""The benchmark's own exact arithmetic, independent of diagalg.

Inputs are built and answers are checked with these helpers only, so a
change to the program under test cannot change the workload or its truth.
A field is named by its characteristic ``p``: 0 for Q (scalars are ints
or ``Fraction``), a prime for F_p (scalars are ints in [0, p)).  Matrices are
lists of rows; polynomials are coefficient lists, lowest degree first,
with no trailing zeros.
"""

import re
from fractions import Fraction


def norm(x, p):
    """A scalar of the field; over Q integers stay ints, which is much
    faster and compares equal to the same Fraction."""
    if p:
        return x % p
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def inv(x, p):
    return pow(x, -1, p) if p else norm(1 / Fraction(x), 0)


def field_name(p):
    return f"F{p}" if p else "Q"


# -- matrices ---------------------------------------------------------------

def identity(n, p):
    return [[norm(1 if i == j else 0, p) for j in range(n)] for i in range(n)]


def mat_mul(A, B, p):
    cols = list(zip(*B))
    out = []
    for row in A:
        nz = [(k, a) for k, a in enumerate(row) if a]
        out.append([norm(sum(a * col[k] for k, a in nz), p) for col in cols])
    return out


def mat_vec(A, v, p):
    return [norm(sum(a * x for a, x in zip(row, v) if a and x), p) for row in A]


def mat_add(A, B, p):
    return [[norm(a + b, p) for a, b in zip(r, s)] for r, s in zip(A, B)]


def mat_scale(A, c, p):
    return [[norm(c * a, p) for a in row] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def block_diag(blocks, p):
    n = sum(len(b) for b in blocks)
    out = [[norm(0, p)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[at + i][at + j] = norm(x, p)
        at += len(b)
    return out


def rank(A, p):
    """Rank by Gauss-Jordan elimination."""
    m = [list(r) for r in A]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        f = inv(m[r][c], p)
        m[r] = [norm(x * f, p) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                g = m[i][c]
                m[i] = [norm(x - g * y, p) for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def unit_triangular(n, rng, p, lower, entries=(-1, 0, 0, 1, 2)):
    """Random unit lower (or upper) triangular matrix with small entries."""
    out = identity(n, p)
    for i in range(n):
        for j in range(n):
            if (i > j) if lower else (i < j):
                out[i][j] = norm(rng.choice(entries), p)
    return out


def unit_lower_inverse(L, p):
    """Inverse of a unit lower triangular matrix by forward substitution."""
    n = len(L)
    X = identity(n, p)
    for i in range(n):
        for j in range(i):
            X[i][j] = norm(-sum(L[i][k] * X[k][j] for k in range(j, i)), p)
    return X


def unimodular_pair(n, rng, p, entries=(-1, 0, 0, 1, 2)):
    """A random P = L U with det 1 and its exact inverse U^-1 L^-1."""
    L = unit_triangular(n, rng, p, True, entries)
    U = unit_triangular(n, rng, p, False, entries)
    Linv = unit_lower_inverse(L, p)
    Uinv = transpose(unit_lower_inverse(transpose(U), p))
    return mat_mul(L, U, p), mat_mul(Uinv, Linv, p)


def upper_unimodular_pair(n, rng, p, entries=(-1, 0, 0, 1, 2)):
    """A random upper unitriangular U and its inverse."""
    U = unit_triangular(n, rng, p, False, entries)
    return U, transpose(unit_lower_inverse(transpose(U), p))


def is_diagonal(A):
    return all(not x for i, row in enumerate(A) for j, x in enumerate(row) if i != j)


# -- polynomials --------------------------------------------------------------

def poly_trim(f):
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def poly_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return poly_trim([norm(x, p) for x in out])


def poly_divmod(f, g, p):
    f = [norm(x, p) for x in f]
    g = poly_trim(g)
    q = [norm(0, p)] * max(0, len(f) - len(g) + 1)
    lead = inv(g[-1], p)
    for k in range(len(f) - len(g), -1, -1):
        c = norm(f[k + len(g) - 1] * lead, p)
        if c:
            q[k] = c
            for i, d in enumerate(g):
                f[k + i] = norm(f[k + i] - c * d, p)
    return poly_trim(q), poly_trim(f)


def poly_eval(f, x, p):
    acc = norm(0, p)
    for c in reversed(f):
        acc = norm(acc * x + c, p)
    return acc


def poly_linear_product(roots, p):
    f = [norm(1, p)]
    for r in roots:
        f = poly_mul(f, [norm(-r, p), norm(1, p)], p)
    return f


def poly_pow(f, e, p):
    out = [norm(1, p)]
    for _ in range(e):
        out = poly_mul(out, f, p)
    return out


def nonresidue(p, rng):
    """An element of F_p that is not a square (p odd)."""
    while True:
        a = rng.randrange(2, p)
        if pow(a, (p - 1) // 2, p) == p - 1:
            return a


def irreducible_quadratic(p, rng):
    """Monic x^2 + c1 x + c0 with no root in the field."""
    if p == 0:
        a = rng.choice([2, 3, 5, 6, 7, -1, -2, -3])
        return [Fraction(-a), Fraction(0), Fraction(1)]
    if p == 2:
        return [1, 1, 1]
    return [(-nonresidue(p, rng)) % p, 0, 1]


def companion(f, p):
    """Companion matrix of a monic polynomial: ones below the diagonal,
    negated coefficients in the last column (upper Hessenberg)."""
    n = len(f) - 1
    C = [[norm(0, p)] * n for _ in range(n)]
    for i in range(1, n):
        C[i][i - 1] = norm(1, p)
    for i in range(n):
        C[i][n - 1] = norm(-f[i], p)
    return C


def jordan(lam, k, p):
    J = [[norm(0, p)] * k for _ in range(k)]
    for i in range(k):
        J[i][i] = norm(lam, p)
        if i + 1 < k:
            J[i][i + 1] = norm(1, p)
    return J


class Spectrum:
    """A block-diagonal matrix B built from scalar eigenvalues, Jordan
    blocks and companion blocks of irreducible quadratics, with what that
    construction fixes: diagonalizability over the field, the minimal
    polynomial, and the eigenvalues with multiplicity."""

    def __init__(self, p, scalars=(), jordans=(), quadratics=()):
        self.p = p
        blocks = [[[lam]] for lam in scalars]
        blocks += [jordan(lam, k, p) for lam, k in jordans]
        blocks += [companion(q, p) for q in quadratics]
        self.matrix = block_diag(blocks, p)
        self.diagonalizable = not jordans and not quadratics
        self.eigenvalues = sorted(norm(x, p) for x in scalars)
        top = {}
        for lam in scalars:
            top[norm(lam, p)] = max(top.get(norm(lam, p), 0), 1)
        for lam, k in jordans:
            top[norm(lam, p)] = max(top.get(norm(lam, p), 0), k)
        mu = [norm(1, p)]
        for lam, k in sorted(top.items()):
            mu = poly_mul(mu, poly_pow([norm(-lam, p), norm(1, p)], k, p), p)
        for q in {tuple(q) for q in quadratics}:
            mu = poly_mul(mu, list(q), p)
        self.mu = mu
        self.bad_factors = [poly_pow([norm(-lam, p), norm(1, p)], 2, p)
                            for lam, _ in jordans] + [list(q) for q in quadratics]

    @property
    def n(self):
        return len(self.matrix)


def conjugate(B, P, Pinv, p):
    return mat_mul(mat_mul(P, B, p), Pinv, p)


# -- text in the program's formats -------------------------------------------

def fmt_scalar(x, p):
    if p:
        return str(x % p)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_list(xs, p):
    return "[" + ",".join(fmt_scalar(x, p) for x in xs) + "]"


def fmt_matrix(A, p):
    return "[" + ",".join(fmt_list(r, p) for r in A) + "]"


def parse_scalar(text, p):
    text = text.strip()
    if p:
        if "mod" in text:
            r, mod = text.split("mod")
            if int(mod) != p:
                raise ValueError(f"scalar {text!r} is not over F_{p}")
            text = r
        return int(text) % p
    return norm(Fraction(text), 0)


def parse_list(text, p):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a list: {text[:40]!r}")
    inner = text[1:-1].strip()
    return [parse_scalar(s, p) for s in inner.split(",")] if inner else []


def parse_matrix(text, p):
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise ValueError(f"not a matrix: {text[:40]!r}")
    return [parse_list("[" + row + "]", p) for row in text[2:-2].split("],[")]


# -- banded operators ---------------------------------------------------------
#
# An operator is a dict: band offset d -> (pre, per), meaning the entry
# (j + d, j) is pre[j] for j < len(pre) and per[(j - len(pre)) % len(per)]
# beyond.  Vectors are dicts index -> nonzero scalar.

def band_at(seq, j):
    pre, per = seq
    return pre[j] if j < len(pre) else per[(j - len(pre)) % len(per)]


def op_apply(bands, v, p):
    out = {}
    for j, x in v.items():
        for d, seq in bands.items():
            c = band_at(seq, j)
            if c:
                out[j + d] = out.get(j + d, 0) + c * x
    return {i: norm(x, p) for i, x in out.items() if norm(x, p)}


def op_poly_apply(f, bands, v, p):
    """f(T) v for a polynomial f, by the apply chain."""
    acc = {}
    power = dict(v)
    for c in f:
        if c:
            for i, x in power.items():
                acc[i] = acc.get(i, 0) + c * x
        power = op_apply(bands, power, p)
    return {i: norm(x, p) for i, x in acc.items() if norm(x, p)}


def window_bands(A, p):
    """Bands of a finite matrix placed in the upper-left window."""
    k = len(A)
    bands = {}
    for i in range(k):
        for j in range(k):
            if A[i][j]:
                pre = bands.setdefault(i - j, [norm(0, p)] * k)
                pre[j] = norm(A[i][j], p)
    return bands


def op_text(p, bands):
    lines = [f"field {field_name(p)}"]
    for d in sorted(bands):
        pre, per = bands[d]
        lines.append(f"band {d}: pre={fmt_list(pre, p)} per={fmt_list(per, p)}")
    return "\n".join(lines)


def vec_text(v, p):
    return "vec " + " ".join(f"{i}:{fmt_scalar(x, p)}" for i, x in sorted(v.items()))


_BAND_LINE = re.compile(r"band\s+(-?\d+):\s*pre=(\[[^\]]*\]);per=(\[[^\]]*\])")


def parse_operator(text, p):
    """Bands of an operator in the program's output format."""
    bands = {}
    for line in text.splitlines()[1:]:
        m = _BAND_LINE.fullmatch(line.strip())
        if not m:
            raise ValueError(f"bad band line {line!r}")
        bands[int(m.group(1))] = (parse_list(m.group(2), p), parse_list(m.group(3), p))
    return bands


def op_window(bands, n, p):
    """The n x n upper-left window of an operator given by bands."""
    W = [[norm(0, p)] * n for _ in range(n)]
    for d, seq in bands.items():
        for j in range(n):
            if 0 <= j + d < n:
                W[j + d][j] = norm(band_at(seq, j), p)
    return W
