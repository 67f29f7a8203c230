"""Dense matrix kernels mod p.

Matrices are flat row-major lists of ints already reduced mod p.  Python
ints are unbounded, so every prime modulus is exact.
"""


def mat_mul_mod(a, b, n, m, k, p):
    """(n x m) times (m x k) mod p."""
    out = [0] * (n * k)
    for i in range(n):
        arow = a[i * m:(i + 1) * m]
        orow = i * k
        for t in range(m):
            c = arow[t]
            if c == 0:
                continue
            brow = t * k
            for j in range(k):
                out[orow + j] = (out[orow + j] + c * b[brow + j]) % p
    return out


def mat_rref_mod(a, nrows, ncols, p, limit=None):
    """Reduced row echelon form mod p.  Returns (flat matrix, pivot columns).

    With ``limit``, pivots are searched only in the first ``limit`` columns
    (augmented systems); the elimination still runs over every column.
    """
    m = list(a)
    pivots = []
    r = 0
    for c in range(ncols if limit is None else limit):
        pr = -1
        for i in range(r, nrows):
            if m[i * ncols + c] % p != 0:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            for j in range(ncols):
                m[r * ncols + j], m[pr * ncols + j] = m[pr * ncols + j], m[r * ncols + j]
        inv = pow(m[r * ncols + c], -1, p)
        for j in range(c, ncols):
            m[r * ncols + j] = (m[r * ncols + j] * inv) % p
        for i in range(nrows):
            if i == r:
                continue
            f = m[i * ncols + c] % p
            if f == 0:
                continue
            for j in range(c, ncols):
                m[i * ncols + j] = (m[i * ncols + j] - f * m[r * ncols + j]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots
