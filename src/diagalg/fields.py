"""Exact scalars, dense polynomials, and eventually periodic sequences.

Two coefficient fields are supported: the rationals, whose scalars are
arbitrary-precision ``fractions.Fraction`` values (always stored reduced,
positive denominator), and prime fields F_p, whose scalars are plain ints
in [0, p).  Arithmetic is routed through the owning field object, so a
scalar never crosses between fields unchecked.

Polynomial is a value type for the package boundary: built, multiplied,
evaluated and printed.  Inside the package polynomials are divided only as
int coefficient lists: roots, gcds and squarefreeness come from gcds mod p
over F_p and from Hensel lifting from a small prime and a primitive PRS gcd
over Q, with no factoring, and roots are certified by evaluation.

Eventually periodic sequences (preperiod + repeating period) are the finite
descriptions used for infinite diagonals and bands elsewhere in the package.
Their normal form -- the unique minimal (preperiod, period) pair -- makes
equality of the infinite sequences decidable.

All values are immutable after construction; every function here is pure.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import (
    CapacityExceeded,
    FieldMismatch,
    InvariantViolated,
    ZeroPolynomial,
)

# Miller-Rabin with the first 13 prime bases is deterministic below this
# bound (Sorenson-Webster 2015); larger primality claims are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n):
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise CapacityExceeded(f"cannot certify primality of a {n.bit_length()}-bit integer")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field Q.  Scalars are Fraction values."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def scalar(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse_scalar(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by 0")
        return a / b

    def format_scalar(self, a):
        return f"{a.numerator}/{a.denominator}" if a.denominator != 1 else str(a.numerator)

    def parse_scalar(self, text):
        text = text.strip()
        digits = text[1:] if text[:1] in "+-" else text
        if digits.isascii() and digits.isdigit():
            # an ASCII integer literal: Fraction(text) would give the same
            # value through a regular-expression match
            return Fraction(int(text))
        return Fraction(text)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField:
    """The field F_p for a prime p.  Scalars are ints in [0, p)."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1

    def scalar(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return self.parse_scalar(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def format_scalar(self, a):
        return f"{a} mod {self.p}"

    def parse_scalar(self, text):
        text = text.strip()
        if "mod" in text:
            r, mod = text.split("mod")
            if int(mod) != self.p:
                raise FieldMismatch(f"scalar written mod {mod.strip()} parsed in F_{self.p}")
            return int(r) % self.p
        return int(text) % self.p

    def __repr__(self):
        return f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))


QQ = Rationals()


@lru_cache(maxsize=None)
def GF(p):
    return PrimeField(p)


def check_same_field(a, b):
    if a != b:
        raise FieldMismatch(f"{a} vs {b}")
    return a


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Dense univariate polynomial over a fixed field, coefficients lowest
    degree first, trailing zeros trimmed.

    A boundary value type: the package divides polynomials only as int
    coefficient lists.  No package code calls divmod; the benchmark's
    layer table traces it by name."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.scalar(c) for c in coeffs]
        while cs and cs[-1] == field.zero:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [1])

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1])

    @classmethod
    def from_roots(cls, field, roots):
        f = cls.one(field)
        for r in roots:
            f = f * cls(field, [field.neg(field.scalar(r)), field.one])
        return f

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def monic(self):
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        inv = self.field.inv(self.coeffs[-1])
        return Polynomial(self.field, [self.field.mul(c, inv) for c in self.coeffs])

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.field.zero

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        F = check_same_field(self.field, other.field)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(F, [F.add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __sub__(self, other):
        F = check_same_field(self.field, other.field)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(F, [F.sub(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self):
        return Polynomial(self.field, [self.field.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        F = self.field
        if isinstance(other, Polynomial):
            check_same_field(F, other.field)
            if self.is_zero() or other.is_zero():
                return Polynomial.zero(F)
            out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == F.zero:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
            return Polynomial(F, out)
        c = F.scalar(other)
        return Polynomial(F, [F.mul(c, a) for a in self.coeffs])

    __rmul__ = __mul__

    def __divmod__(self, other):
        F = check_same_field(self.field, other.field)
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        rem = list(self.coeffs)
        div = other.coeffs
        inv_lead = F.inv(div[-1])
        q = [F.zero] * max(0, len(rem) - len(div) + 1)
        for k in range(len(rem) - len(div), -1, -1):
            c = F.mul(rem[k + len(div) - 1], inv_lead)
            if c == F.zero:
                continue
            q[k] = c
            for i, d in enumerate(div):
                rem[k + i] = F.sub(rem[k + i], F.mul(c, d))
        return Polynomial(F, q), Polynomial(F, rem)

    def __call__(self, x):
        F = self.field
        x = F.scalar(x)
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == self.field.zero:
                continue
            cs = self.field.format_scalar(c)
            term = cs if k == 0 else ("x" if k == 1 else f"x^{k}")
            if k > 0 and cs != "1":
                term = f"{cs}*{term}"
            parts.append(term)
        return " + ".join(parts)


class SplitsReport:
    """Outcome of poly_splits_simply: either the sorted distinct roots, or a
    reason why f is not a product of distinct linear factors."""

    __slots__ = ("splits", "roots", "reason")

    def __init__(self, splits, roots=None, reason=None):
        self.splits = splits
        self.roots = roots
        self.reason = reason

    def __bool__(self):
        return self.splits

    def __repr__(self):
        if self.splits:
            return f"Yes({self.roots})"
        return f"No({self.reason})"


# Roots over F_p work on plain int coefficient lists mod p, lowest degree
# first and trimmed, with monic divisors: Polynomial would re-coerce every
# coefficient through the field on every operation.

def _sub_p(a, b, p):
    out = [(x - y) % p for x, y in zip(a, b)]
    out += [x % p for x in a[len(b):]] + [-y % p for y in b[len(a):]]
    while out and not out[-1]:
        out.pop()
    return out


def _divmod_p(a, b, p):
    """Quotient and remainder of a by the monic b."""
    db = len(b) - 1
    r = list(a)
    q = [0] * max(0, len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = r[k + db] % p
        if c:
            q[k] = c
            for i in range(db):
                r[k + i] -= c * b[i]
    r = [c % p for c in r[:db]]
    while r and not r[-1]:
        r.pop()
    return q, r


def _mul(a, b):
    """The product of two int coefficient lists, unreduced."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _mulmod_p(a, b, f, p):
    """a*b mod the monic f."""
    return _divmod_p(_mul(a, b), f, p)[1]


def _powmod_p(b, e, f, p):
    """b**e mod the monic f, by left-to-right square and multiply."""
    r = [1]
    for bit in bin(e)[2:]:
        r = _mulmod_p(r, r, f, p)
        if bit == "1":
            r = _mulmod_p(r, b, f, p)
    return r


def _gcd_p(a, b, p):
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _divmod_p(a, b, p)[1]
    return a


def _eval_p(f, r, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * r + c) % p
    return acc


def _derivative(f, p=0):
    """f' of an int coefficient list, reduced mod p unless p is 0, trimmed."""
    out = [k * c % p if p else k * c for k, c in enumerate(f)][1:]
    while out and not out[-1]:
        out.pop()
    return out


def _certify_roots(f, roots, p):
    """Raise unless ``roots`` are deg f distinct elements of F_p at which the
    monic f vanishes, which makes f exactly the product of the x - r."""
    d = len(f) - 1
    ok = len(roots) == d and len(set(roots)) == d and all(0 <= r < p for r in roots)
    if ok and d == p:
        # p distinct roots: f must be x^p - x, which vanishes on all of F_p
        ok = f == [0, p - 1] + [0] * (p - 2) + [1]
    elif ok:
        ok = all(_eval_p(f, r, p) == 0 for r in roots)
    if not ok:
        raise InvariantViolated(f"root certificate failed over F_{p}: {roots}")


def _linear_roots(f, p, h=None):
    """The sorted roots of the monic f, known to be a product of distinct
    linear factors over F_p.  ``h``, when given, is x^(p//2) mod f.

    Degree 1 and degree p (f = x^p - x) are read off.  Otherwise p is odd and
    g = gcd(f, (x+a)^((p-1)/2) - 1) keeps exactly the roots r with r + a a
    nonzero square.  For two distinct roots, at least (p-1)/2 of the a in
    F_p put them on different sides, so trying a = 0, 1, 2, ... splits f
    within p steps, with no randomness.  An a that failed for f fails for both parts,
    so each part resumes where its parent stopped.
    """
    roots = []
    todo = [(f, 0, h)]
    while todo:
        g, a, h = todo.pop()
        d = len(g) - 1
        if d == 0:
            continue
        if d == 1:
            roots.append(-g[0] % p)
            continue
        if d == p:
            roots.extend(range(p))
            continue
        for a in range(a, p):
            if h is None:
                h = _powmod_p([a, 1], (p - 1) // 2, g, p)
            u = _gcd_p(g, _sub_p(h, [1], p), p)
            if 0 < len(u) - 1 < d:
                break
            h = None
        else:
            raise InvariantViolated(f"no split of a degree-{d} factor over F_{p}")
        todo.append((u, a + 1, None))
        todo.append((_divmod_p(g, u, p)[0], a + 1, None))
    roots.sort()
    _certify_roots(f, roots, p)
    return roots


def _gcd_z(a, b):
    """The primitive gcd of the integer polynomials a and b (deg a >= deg b,
    b nonzero), up to sign, by the primitive pseudo-remainder sequence."""
    while True:
        g = gcd(*b)
        b = [x // g for x in b]
        if len(b) == 1:
            return b
        r = list(a)
        while len(r) >= len(b):
            c = r.pop()
            r = [b[-1] * x for x in r]
            for i, y in enumerate(b[:-1], len(r) + 1 - len(b)):
                r[i] -= c * y
            while r and not r[-1]:
                r.pop()
        if not r:
            return b
        a, b = b, r


def _roots_over_q(f):
    """The sorted distinct rational roots of the monic f over Q, and whether
    f has a repeated factor: r/delta for the integer roots r of the monic
    g(y) = delta^d f(y/delta), delta the lcm of f's denominators.
    Past x^k, the first prime p > 32 with g mod p squarefree keeps them
    distinct mod p; they are read off every residue (cheaper at such p than
    _linear_roots), lifted by Newton steps mod p^(2^i) (Loos 1983; von zur
    Gathen-Gerhard, ch. 15) until it exceeds 2|g(0)|, as each divides g(0),
    and kept iff g vanishes there.  A repeated factor survives every prime:
    after three failed primes the primitive PRS gcd h of g and g' settles
    it.  A nontrivial h divides the monic g over Z (Gauss), so its leading
    coefficient is +-1, and g/h, with the same roots, each simple, goes on
    to the next prime."""
    cs, d = f.coeffs, f.degree
    delta = lcm(*[c.denominator for c in cs])
    g = [c.numerator * delta ** (d - k) // c.denominator for k, c in enumerate(cs)]
    k = next(i for i, c in enumerate(g) if c)  # x^k divides g
    repeated = k > 1
    g, dg = g[k:], _derivative(g[k:])
    for tries, p in enumerate(filter(_is_prime, itertools.count(33, 2)), 1):
        gp = [c % p for c in g]
        if len(_gcd_p(gp, _derivative(gp, p), p)) == 1:
            break
        if tries == 3:
            h = _gcd_z(g, dg)
            if len(h) > 1:
                repeated = True
                h = [h[-1] * c for c in h]  # monic
                s = [0] * (len(g) - len(h) + 1)
                for i in reversed(range(len(s))):
                    s[i] = c = g[i + len(h) - 1]
                    for j, y in enumerate(h):
                        g[i + j] -= c * y
                g, dg = s, _derivative(s)
    lifts = [r for r in range(p) if not _eval_p(gp, r, p)]
    q = p
    while q <= 2 * abs(g[0]):
        q *= q
        lifts = [(r - _eval_p(g, r, q) * pow(_eval_p(dg, r, q), -1, q)) % q for r in lifts]
    lifts = (r - q if 2 * r > q else r for r in lifts)
    roots = [0] * min(k, 1) + [r for r in lifts if not sum(c * r ** e for e, c in enumerate(g))]
    return [Fraction(r, delta) for r in sorted(roots)], repeated


def poly_roots_in_field(f):
    """The distinct roots of f lying in its own field (irrational or
    extension-field roots are simply not reported).  Over F_p they are the
    roots of gcd(f, x^p - x), split out by _linear_roots; over Q
    _roots_over_q strips repeated factors from its integer form of f."""
    if f.is_zero():
        raise ZeroPolynomial("root extraction on 0")
    F = f.field
    if f.degree == 0:
        return []
    if F.char > 0:
        p = F.char
        fl = list(f.monic().coeffs)
        xp = _powmod_p([0, 1], p, fl, p)
        return _linear_roots(_gcd_p(fl, _sub_p(xp, [0, 1], p), p), p)
    return _roots_over_q(f.monic())[0]


def poly_splits_simply(f):
    """Decide whether f is a product of pairwise distinct linear factors
    over its field, and if so return the sorted roots.

    Over F_p the criterion is x^p = x mod f, which covers squarefreeness
    and splitting in one test.  For odd p it is computed as x * h^2 from
    h = x^((p-1)/2) mod f, and h - 1 is then the first splitting gcd of the
    root extraction (_linear_roots), so no field element is enumerated.
    When the test fails, a nontrivial gcd(f, f') names a repeated factor.
    Over Q nothing is factored: f splits simply iff _roots_over_q finds no
    repeated factor and deg f roots, each certified by evaluation.
    """
    if f.is_zero():
        raise ZeroPolynomial("splitting test on 0")
    F = f.field
    f = f.monic()
    if f.degree == 0:
        return SplitsReport(True, roots=[])
    if F.char > 0:
        p = F.char
        fl = list(f.coeffs)
        h = _powmod_p([0, 1], p // 2, fl, p)
        xp = _mulmod_p(h, h, fl, p)
        if p % 2:
            xp = _mulmod_p(xp, [0, 1], fl, p)
        if xp != _divmod_p([0, 1], fl, p)[1]:
            if len(_gcd_p(fl, _derivative(fl, p), p)) > 1:
                return SplitsReport(False, reason="repeated factor")
            return SplitsReport(False, reason="irreducible factor of degree > 1")
        return SplitsReport(True, roots=_linear_roots(fl, p, h))
    roots, repeated = _roots_over_q(f)
    if repeated:
        return SplitsReport(False, reason="repeated factor")
    if len(roots) < f.degree:
        return SplitsReport(
            False, reason=f"no rational root of residual degree {f.degree - len(roots)}")
    return SplitsReport(True, roots=roots)


# ---------------------------------------------------------------------------
# Eventually periodic sequences
# ---------------------------------------------------------------------------

def normalize_ep(pre, per):
    """Reduce an (preperiod, period) pair of values to the unique minimal
    form describing the same infinite sequence.  Works for any values with
    equality; used both for scalar sequences and for color sequences."""
    pre = tuple(pre)
    per = tuple(per)
    if not per:
        raise ValueError("period must be nonempty")
    # minimal cyclic period: the minimal period of a repeated word divides
    # its length
    m = len(per)
    for d in range(1, m + 1):
        if m % d == 0 and per[:d] * (m // d) == per:
            per = per[:d]
            break
    # absorb the preperiod tail entries that already lie on the cycle; each
    # one absorbed rotates the period right by one
    m = len(per)
    n = len(pre)
    k = 0
    while k < n and pre[n - 1 - k] == per[(m - 1 - k) % m]:
        k += 1
    if k:
        r = m - k % m
        pre = pre[:n - k]
        per = per[r:] + per[:r]
    return pre, per


class EPSeq:
    """Eventually periodic scalar sequence: ``pre`` then ``per`` repeating.

    Instances are kept in the minimal normal form, so == decides equality of
    the infinite sequences.
    """

    __slots__ = ("field", "pre", "per")

    def __init__(self, field, pre, per):
        pre = [field.scalar(c) for c in pre]
        per = [field.scalar(c) for c in per]
        self.field = field
        self.pre, self.per = normalize_ep(pre, per)

    @classmethod
    def _of(cls, field, pre, per):
        """Internal constructor for values that are already field scalars
        (results of the field's own operations): no coercion, but the
        normal form is still taken."""
        s = object.__new__(cls)
        s.field = field
        s.pre, s.per = normalize_ep(pre, per)
        return s

    @classmethod
    def constant(cls, field, value):
        return cls(field, [], [value])

    @classmethod
    def zero(cls, field):
        return cls._of(field, (), (field.zero,))

    @classmethod
    def one(cls, field):
        return cls._of(field, (), (field.one,))

    def at(self, n):
        if n < 0:
            return self.field.zero
        if n < len(self.pre):
            return self.pre[n]
        return self.per[(n - len(self.pre)) % len(self.per)]

    def values(self, start, count):
        """The ``count`` consecutive values from index ``start`` on, as a
        list, with zeros at negative indices."""
        out = []
        if start < 0:
            k = min(-start, count)
            out = [self.field.zero] * k
            start += k
            count -= k
        pre, per = self.pre, self.per
        if start < len(pre):
            chunk = pre[start:start + count]
            out += chunk
            start += len(chunk)
            count -= len(chunk)
        if count > 0:
            m = len(per)
            r = (start - len(pre)) % m
            cycle = per[r:] + per[:r]
            q, rest = divmod(count, m)
            out += cycle * q + cycle[:rest]
        return out

    def is_zero(self):
        return not self.pre and self.per == (self.field.zero,)

    def period_nowhere_zero(self):
        return all(self.per)

    def _binop(self, other, op):
        F = check_same_field(self.field, other.field)
        k = max(len(self.pre), len(other.pre))
        n = k + lcm(len(self.per), len(other.per))
        vals = list(map(op, self.values(0, n), other.values(0, n)))
        return EPSeq._of(F, vals[:k], vals[k:])

    def __add__(self, other):
        return self._binop(other, self.field.add)

    def __sub__(self, other):
        return self._binop(other, self.field.sub)

    def __mul__(self, other):
        F = self.field
        if isinstance(other, EPSeq):
            return self._binop(other, F.mul)
        c = F.scalar(other)
        return EPSeq._of(F, [F.mul(c, v) for v in self.pre], [F.mul(c, v) for v in self.per])

    __rmul__ = __mul__

    def __neg__(self):
        F = self.field
        return EPSeq._of(F, [F.neg(v) for v in self.pre], [F.neg(v) for v in self.per])

    def shift(self, d):
        """Index shift n -> value at n+d.  For d >= 0 the raw shift; for
        d < 0 the prefix extension that pads |d| zeros in front."""
        k = max(0, len(self.pre) - d)
        vals = self.values(d, k + len(self.per))
        return EPSeq._of(self.field, vals[:k], vals[k:])

    def __eq__(self, other):
        return (
            isinstance(other, EPSeq)
            and self.field == other.field
            and self.pre == other.pre
            and self.per == other.per
        )

    def __hash__(self):
        return hash((self.field, self.pre, self.per))

    def __repr__(self):
        fmt = self.field.format_scalar
        pre = ",".join(fmt(c) for c in self.pre)
        per = ",".join(fmt(c) for c in self.per)
        return f"pre=[{pre}];per=[{per}]"

