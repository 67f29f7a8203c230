"""Independent oracles for the test suite.

Everything here is deliberately written from first principles (plain lists,
sympy for rational linear algebra, hand-rolled mod-p polynomial helpers) so
the checks do not share code paths with the package implementations they
judge.
"""

from fractions import Fraction

import sympy


# -- dense windows built straight from a band/correction specification ------

def dense_from_spec(n, bands, corrections=None):
    """n x n window of an operator given by {offset: (pre, per)} bands and
    {(i, j): value} corrections, evaluated by direct indexing (values are
    plain ints/Fractions; reduction mod p is the caller's business)."""
    def band_at(spec, j):
        pre, per = spec
        if j < len(pre):
            return pre[j]
        return per[(j - len(pre)) % len(per)]

    M = [[0] * n for _ in range(n)]
    for d, spec in bands.items():
        for j in range(n):
            i = j + d
            if 0 <= i < n:
                M[i][j] += band_at(spec, j)
    for (i, j), v in (corrections or {}).items():
        if i < n and j < n:
            M[i][j] += v
    return M


def mat_mul(A, B, p=None):
    n, m, k = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * k for _ in range(n)]
    for i in range(n):
        for t in range(m):
            a = A[i][t]
            if a == 0:
                continue
            for j in range(k):
                out[i][j] += a * B[t][j]
    if p is not None:
        out = [[x % p for x in row] for row in out]
    return out


def fraction_matmul(A, B):
    """A times B by the plain triple loop on Fractions (B's column count is
    read from its first row, so a B without rows gives a product without
    columns)."""
    n, m, k = len(A), len(B), len(B[0]) if B else 0
    return [[sum((Fraction(A[i][t]) * Fraction(B[t][j]) for t in range(m)), Fraction(0))
             for j in range(k)] for i in range(n)]


def mat_vec(A, v, p=None):
    out = [sum(a * x for a, x in zip(row, v)) for row in A]
    if p is not None:
        out = [x % p for x in out]
    return out


def upper_left(M, n):
    return [row[:n] for row in M[:n]]


# -- sympy-backed exact rational linear algebra ------------------------------

def sym(M):
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in M])


def sympy_rank(M):
    return sym(M).rank()


def sympy_charpoly_coeffs(M):
    """Monic characteristic polynomial, lowest degree first, as Fractions."""
    x = sympy.Symbol("x")
    poly = sym(M).charpoly(x)
    coeffs = poly.all_coeffs()[::-1]
    return [Fraction(str(c)) for c in coeffs]


def sympy_poly_at(coeffs_low_first, M, p=None):
    """A polynomial (coefficients lowest degree first) evaluated at the
    square matrix M by Horner, as a sympy matrix; entries reduced mod p
    when a prime p is given."""
    A = sym(M)
    acc = sympy.zeros(A.rows, A.cols)
    for c in reversed(coeffs_low_first):
        acc = acc * A + sympy.Rational(c) * sympy.eye(A.rows)
        if p is not None:
            acc = acc.applyfunc(lambda x: x % p)
    return acc


def sympy_is_minimal_polynomial(coeffs_low_first, M, p=None):
    """True iff the monic polynomial kills M and no proper monic divisor
    does: mu(M) = 0 and (mu / f)(M) != 0 for each irreducible factor f.
    With a prime p, M and mu hold ints and everything is taken mod p."""
    x = sympy.Symbol("x")
    if p is None:
        mu = sympy.Poly(list(reversed([sympy.Rational(c) for c in coeffs_low_first])), x)
    else:
        mu = sympy.Poly(list(reversed(coeffs_low_first)), x, modulus=p)
    lead = mu.LC() if p is None else int(mu.LC()) % p
    if lead != 1 or not sympy_poly_at(coeffs_low_first, M, p).is_zero_matrix:
        return False
    _, factors = mu.factor_list()
    for f, _mult in factors:
        quotient = mu.quo(f.monic())
        coeffs = [int(c) % p for c in quotient.all_coeffs()] if p else quotient.all_coeffs()
        if sympy_poly_at(coeffs[::-1], M, p).is_zero_matrix:
            return False
    return True


def sympy_x_power_mod(e, coeffs_low_first, p=None):
    """x^e mod f, from sympy, as a low-first list with no trailing zeros:
    Fractions over Q, or with a prime p ints in [0, p) over F_p."""
    x = sympy.Symbol("x")
    opts = {} if p is None else {"modulus": p}
    f = sympy.Poly([sympy.Rational(c) for c in reversed(coeffs_low_first)], x, **opts)
    rem = reversed(sympy.Poly(x**e, x, **opts).rem(f).all_coeffs())
    r = [Fraction(int(c.p), int(c.q)) if p is None else int(c) % p for c in rem]
    while r and r[-1] == 0:
        r.pop()
    return r


def sympy_divides(a, b, p=None):
    """Whether the polynomial a divides b (coefficients lowest degree
    first): over Q, or with a prime p over F_p."""
    x = sympy.Symbol("x")
    opts = {} if p is None else {"modulus": p}
    a, b = (sympy.Poly([sympy.Rational(c) for c in reversed(f)], x, **opts) for f in (a, b))
    return b.rem(a).is_zero


def sympy_rational_roots(coeffs_low_first):
    """(squarefree, roots) of a nonzero polynomial over Q from sympy's
    factorization: whether no irreducible factor repeats, and the sorted
    distinct rational roots as Fractions."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed([sympy.Rational(c) for c in coeffs_low_first])), x)
    _, factors = poly.factor_list()
    roots = []
    for f, _mult in factors:
        if f.degree() == 1:
            c1, c0 = f.all_coeffs()
            roots.append(Fraction(str(sympy.Rational(-c0, c1))))
    return all(mult == 1 for _, mult in factors), sorted(roots)


def conjugated(blocks, P, p=None):
    """P J P^-1 as rows of Fractions, J block diagonal: ("jordan", lam, k)
    is a k x k Jordan block at lam, ("companion", c) the companion matrix
    of the monic polynomial with coefficients c (lowest first, leading 1
    omitted).  P must be invertible of the total size; with a prime p, P
    and J hold ints, P must be invertible mod p, and the rows are ints
    reduced mod p."""
    parts = []
    for block in blocks:
        if block[0] == "jordan":
            _, lam, k = block
            J = sympy.eye(k) * sympy.Rational(lam)
            for i in range(k - 1):
                J[i, i + 1] = 1
        else:
            c = block[1]
            k = len(c)
            J = sympy.zeros(k, k)
            for i in range(1, k):
                J[i, i - 1] = 1
            for i in range(k):
                J[i, k - 1] = -sympy.Rational(c[i])
        parts.append(J)
    Pm = sym(P)
    if p is not None:
        T = Pm * sympy.diag(*parts) * Pm.inv_mod(p)
        return [[int(T[i, j]) % p for j in range(T.cols)] for i in range(T.rows)]
    T = Pm * sympy.diag(*parts) * Pm.inv()
    return [[Fraction(str(T[i, j])) for j in range(T.cols)] for i in range(T.rows)]


def sympy_is_diagonalizable(M):
    return sym(M).is_diagonalizable()


def sympy_rational_diagonalizable(M):
    """Diagonalizable over Q: the geometric multiplicities of the rational
    eigenvalues account for the whole dimension."""
    A = sym(M)
    n = A.rows
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(A.charpoly(x).as_expr(), x).factor_list()
    total = 0
    for f, _mult in factors:
        if f.degree() == 1:
            c1, c0 = f.all_coeffs()
            lam = sympy.Rational(-c0, c1)
            total += len((A - lam * sympy.eye(n)).nullspace())
    return total == n


def sympy_factor_degrees(coeffs_low_first):
    """Degrees of the irreducible rational factors (with multiplicity)."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed([sympy.Rational(c) for c in coeffs_low_first])), x)
    _, factors = poly.factor_list()
    return sorted(f.degree() for f, mult in factors for _ in range(mult))


def krylov_annihilator_dense(M, v, depth, p=None):
    """Minimal monic annihilator of the chain v, Mv, M^2 v, ... inside a
    dense window, or None if no dependence appears within depth; plain row
    reduction over Q or F_p."""
    chain = [list(v)]
    for _ in range(depth):
        chain.append(mat_vec(M, chain[-1], p))
    for k in range(1, len(chain) + 1):
        prefix = chain[:k]
        rank = plain_rank(prefix, p)
        if rank < k:
            A = [list(r) for r in zip(*prefix[:-1])]
            sol = plain_solve(A, chain[k - 1], p)
            if p is None:
                return [-Fraction(c) for c in sol] + [Fraction(1)]
            return [(-c) % p for c in sol] + [1]
    return None


# -- plain row reduction over Q or F_p ----------------------------------------

def _inv(x, p):
    return pow(x, -1, p) if p is not None else Fraction(1) / Fraction(x)


def _red(x, p):
    return x % p if p is not None else Fraction(x)


def plain_rank(rows, p=None):
    m = [[_red(x, p) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = _inv(m[rank][c], p)
        m[rank] = [_red(x * inv, p) for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [_red(a - f * b, p) for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def plain_solve(A, b, p=None):
    """One solution of A x = b (consistency assumed)."""
    n, k = len(A), len(A[0]) if A else 0
    m = [[_red(A[i][j], p) for j in range(k)] + [_red(b[i], p)] for i in range(n)]
    pivots = []
    rank = 0
    for c in range(k):
        piv = next((r for r in range(rank, n) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = _inv(m[rank][c], p)
        m[rank] = [_red(x * inv, p) for x in m[rank]]
        for r in range(n):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [_red(a - f * bb, p) for a, bb in zip(m[r], m[rank])]
        pivots.append(c)
        rank += 1
    x = [_red(0, p)] * k
    for r, c in enumerate(pivots):
        x[c] = m[r][k]
    return x


def fraction_rref(rows, pivot_limit=None, p=None):
    """Gauss-Jordan with every row kept: (rows, pivots), the pivot rows
    first.  On Fractions, or on ints mod p when p is given.  The pivot of
    each column is the first nonzero entry at or below the current row;
    pivot search stops at column pivot_limit (augmented systems)."""
    m = [[_red(x, p) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    limit = ncols if pivot_limit is None else pivot_limit
    pivots = []
    for c in range(limit):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = _inv(m[r][c], p)
        m[r] = [_red(x * inv, p) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [_red(a - f * b, p) for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def modp_rank(rows, p):
    return plain_rank(rows, p)


# -- F_p polynomial evaluation (coefficients lowest first) --------------------

def gfp_eval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def brute_normalize_ep(values_fn, pre_bound, per_bound, horizon):
    """Minimal (preperiod, period) pair consistent with the sequence on
    [0, horizon); brute force over all candidate pairs."""
    vals = [values_fn(i) for i in range(horizon)]
    best = None
    for per_len in range(1, per_bound + 1):
        for pre_len in range(0, pre_bound + 1):
            ok = all(
                vals[i] == vals[pre_len + ((i - pre_len) % per_len)]
                for i in range(pre_len, horizon)
            )
            if ok:
                cand = (pre_len, per_len)
                if best is None or cand[1] < best[1] or (
                        cand[1] == best[1] and cand[0] < best[0]):
                    best = cand
    if best is None:
        raise AssertionError("no eventually periodic description within bounds")
    pre_len, per_len = best
    return vals[:pre_len], vals[pre_len:pre_len + per_len]


def count_calls(monkeypatch, owner, names):
    """Count calls of the named methods of ``owner`` in the returned dict,
    for as long as the monkeypatch lasts.  A counter, not an oracle: it
    judges how the package computes, not what."""
    calls = {}
    for name in names:
        real = getattr(owner, name)
        calls[name] = 0

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls
