"""Endomorphisms of the space with basis v_0, v_1, ... in a finitely
described class: finitely many diagonals, each an eventually periodic
sequence.

An operator is stored as a map from diagonal offset d to an EPSeq c_d with
entry(j+d, j) = c_d(j); finite "correction" entries supplied at construction
are folded into the preperiods of their diagonals, so the canonical form is
pure bands and equality of operators is a dictionary comparison.  The class
is closed under addition and multiplication, contains the shift operators,
all diagonal operators, and every finite-rank matrix placed in the window,
which covers everything this package needs to build.

Besides the ring structure, this module decides diagonalizability questions
for the class: the total T^p = T test over a prime field, torsion testing of
vectors with an explicit non-torsion growth certificate, and membership in
the closure of the set of diagonalizable operators.
"""

from math import lcm
from operator import add, mul

from .errors import InvariantViolated, NegativeIndexLeak, WrongField
from .fields import EPSeq, Polynomial, check_same_field, poly_splits_simply
from .linalg import (
    Echelon,
    Matrix,
    Subspace,
    diagonalize_finite,
    krylov_annihilators,
    rref_rows,
)


class FiniteVector:
    """Finitely supported vector: a map basis index -> nonzero scalar."""

    __slots__ = ("field", "entries")

    def __init__(self, field, entries):
        clean = {}
        for i, x in dict(entries).items():
            if i < 0:
                raise NegativeIndexLeak(f"vector entry at negative index {i}")
            v = field.scalar(x)
            if v != field.zero:
                clean[int(i)] = v
        self.field = field
        self.entries = clean

    @classmethod
    def _of(cls, field, entries):
        """Internal constructor for a dict from nonnegative int indices to
        nonzero field scalars: no coercion and no checks."""
        v = object.__new__(cls)
        v.field = field
        v.entries = entries
        return v

    @classmethod
    def basis(cls, field, i):
        return cls(field, {i: 1})

    @classmethod
    def zero(cls, field):
        return cls._of(field, {})

    def is_zero(self):
        return not self.entries

    def support(self):
        return sorted(self.entries)

    def max_index(self):
        return max(self.entries) if self.entries else -1

    def at(self, i):
        return self.entries.get(i, self.field.zero)

    def to_list(self, n):
        return [self.at(i) for i in range(n)]

    def __add__(self, other):
        F = check_same_field(self.field, other.field)
        out = dict(self.entries)
        for i, x in other.entries.items():
            y = F.add(out.get(i, F.zero), x)
            if y:
                out[i] = y
            else:
                del out[i]
        return FiniteVector._of(F, out)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def scale(self, c):
        F = self.field
        c = F.scalar(c)
        if not c:
            return FiniteVector._of(F, {})
        return FiniteVector._of(F, {i: F.mul(c, x) for i, x in self.entries.items()})

    def __eq__(self, other):
        return (
            isinstance(other, FiniteVector)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        fmt = self.field.format_scalar
        body = " ".join(f"{i}:{fmt(x)}" for i, x in sorted(self.entries.items()))
        return f"vec {body}" if body else "vec 0"


class Operator:
    __slots__ = ("field", "bands")

    def __init__(self, field, bands=None, corrections=None):
        merged = {}
        for d, seq in (bands or {}).items():
            check_same_field(field, seq.field)
            if not seq.is_zero():
                merged[int(d)] = seq
        if corrections:
            by_offset = {}
            for (i, j), x in corrections.items():
                if i < 0 or j < 0:
                    raise NegativeIndexLeak(f"correction at ({i}, {j})")
                v = field.scalar(x)
                if v != field.zero:
                    by_offset.setdefault(i - j, {})[j] = v
            for d, cols in by_offset.items():
                width = max(cols) + 1
                base = merged.get(d, EPSeq.zero(field))
                k = max(width, len(base.pre))
                pre = base.values(0, k)
                for j, v in cols.items():
                    pre[j] = field.add(pre[j], v)
                seq = EPSeq._of(field, pre, base.values(k, len(base.per)))
                if seq.is_zero():
                    merged.pop(d, None)
                else:
                    merged[d] = seq
        for d, seq in merged.items():
            if d < 0:
                for j, c in enumerate(seq.values(0, -d)):
                    if c:
                        raise NegativeIndexLeak(
                            f"band {d} writes row {j + d} from column {j}"
                        )
        self.field = field
        self.bands = dict(sorted(merged.items()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def identity(cls, field):
        return cls(field, {0: EPSeq.one(field)})

    @classmethod
    def shift(cls, field, k=1):
        """v_i -> v_{i+k}; for k < 0 the truncated left shift killing v_i
        with i < |k|."""
        if k >= 0:
            return cls(field, {k: EPSeq.one(field)})
        return cls(field, {k: EPSeq(field, [0] * (-k), [1])})

    @classmethod
    def diagonal(cls, field, seq):
        return cls(field, {0: seq})

    @classmethod
    def matrix_unit(cls, field, i, j, value=1):
        return cls(field, corrections={(i, j): value})

    @classmethod
    def from_matrix(cls, field, M):
        """Window-only embedding of a finite matrix, zero beyond it."""
        corr = {}
        for i, row in enumerate(M.rows):
            for j, x in enumerate(row):
                if x:
                    corr[(i, j)] = x
        return cls(field, corrections=corr)

    # -- structure -----------------------------------------------------------

    def entry(self, i, j):
        seq = self.bands.get(i - j)
        return seq.at(j) if seq is not None else self.field.zero

    def is_zero(self):
        return not self.bands

    def max_offset(self):
        return max(self.bands) if self.bands else 0

    def preperiod_bound(self):
        return max((len(s.pre) for s in self.bands.values()), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, Operator)
            and self.field == other.field
            and self.bands == other.bands
        )

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.bands.items()))))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        F = check_same_field(self.field, other.field)
        bands = dict(self.bands)
        for d, seq in other.bands.items():
            bands[d] = bands[d] + seq if d in bands else seq
        return Operator(F, bands)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def scale(self, c):
        F = self.field
        c = F.scalar(c)
        if c == F.zero:
            return Operator.zero(F)
        return Operator(F, {d: seq * c for d, seq in self.bands.items()})

    def __mul__(self, other):
        if not isinstance(other, Operator):
            return self.scale(other)
        F = check_same_field(self.field, other.field)
        p, zero = F.char, F.zero
        pairs = {}
        for d1, a in self.bands.items():
            for d2, b in other.bands.items():
                pairs.setdefault(d1 + d2, []).append((a, d2, b))
        bands = {}
        for d, terms in pairs.items():
            # entry (j+d, j) is the sum of a(j+d2) * b(j) over the terms; each
            # is periodic from index lp on with a period dividing m, so one
            # pass over lp + m indices gives the band
            lp = max(max(len(a.pre) - d2, len(b.pre)) for a, d2, b in terms)
            m = lcm(*(len(s.per) for a, _, b in terms for s in (a, b)))
            n = lp + m
            acc = None
            for a, d2, b in terms:
                av, bv = a.values(d2, n), b.values(0, n)
                if p:
                    # int sums, reduced once below
                    prod = list(map(mul, av, bv))
                    acc = prod if acc is None else list(map(add, acc, prod))
                else:
                    # Fraction arithmetic is costly, so zero products and
                    # sums are skipped; the shared zero they leave also
                    # makes the normal-form comparisons identity checks
                    prod = [x * y if x and y else zero for x, y in zip(av, bv)]
                    acc = prod if acc is None else [u + v if v else u for u, v in zip(acc, prod)]
            if p:
                acc = [x % p for x in acc]
            bands[d] = EPSeq._of(F, acc[:lp], acc[lp:])
        try:
            return Operator(F, bands)
        except NegativeIndexLeak as exc:
            # the factors are operators, so a leak here is a product bug,
            # not an input error
            raise InvariantViolated("product leaked below row 0") from exc

    __rmul__ = scale

    def __pow__(self, e):
        result = Operator.identity(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_idempotent(self):
        return (self * self) == self

    # -- actions ---------------------------------------------------------------

    def apply(self, v):
        F = check_same_field(self.field, v.field)
        entries = v.entries.items()
        acc = {}
        for d, seq in self.bands.items():
            pre, per = seq.pre, seq.per
            lp, m = len(pre), len(per)
            for j, x in entries:
                c = pre[j] if j < lp else per[(j - lp) % m]
                if c:
                    i = j + d
                    acc[i] = acc[i] + c * x if i in acc else c * x
        # sums over F_p are reduced once, at the end
        p = F.char
        if p:
            return FiniteVector._of(F, {i: r for i, x in acc.items() if (r := x % p)})
        return FiniteVector._of(F, {i: x for i, x in acc.items() if x})

    def truncate(self, n):
        """The n x n upper-left window.  Truncation is a window, not a ring
        homomorphism: products generally need padding."""
        F = self.field
        return Matrix(F, [[self.entry(i, j) for j in range(n)] for i in range(n)])

    def __repr__(self):
        parts = [f"field {self.field}"]
        for d, seq in self.bands.items():
            parts.append(f"band {d}: {seq}")
        return "\n".join(parts)


def finite_field_diag_check(T):
    """Exact decision over F_p: diagonalizable iff T^p = T; total for the
    whole representation class."""
    if T.field.char == 0:
        raise WrongField("finite-field test on a rational operator")
    p = T.field.char
    return (T ** p) == T


# ---------------------------------------------------------------------------
# Torsion
# ---------------------------------------------------------------------------

class TorsionReport:
    """Outcome of a Krylov torsion probe.

    outcome is one of "torsion" (with the verified monic annihilator),
    "non_torsion" (with a growth certificate), or "unknown" (depth ran out).
    """

    __slots__ = ("outcome", "annihilator", "depth_used", "certificate")

    def __init__(self, outcome, annihilator=None, depth_used=None, certificate=None):
        self.outcome = outcome
        self.annihilator = annihilator
        self.depth_used = depth_used
        self.certificate = certificate

    def __repr__(self):
        if self.outcome == "torsion":
            return f"Torsion({self.annihilator}, depth={self.depth_used})"
        if self.outcome == "non_torsion":
            return f"NonTorsionCertified({self.certificate})"
        return f"Unknown(depth={self.depth_used})"


def growth_certificate_data(T):
    """If the top band offset is positive and its sequence is eventually
    nowhere zero, any vector whose support reaches past every preperiod has
    strictly growing iterate support, hence is not torsion.  Returns
    (dmax, threshold) or None."""
    if not T.bands:
        return None
    dmax = T.max_offset()
    if dmax <= 0:
        return None
    top = T.bands[dmax]
    if not top.period_nowhere_zero():
        return None
    return dmax, len(top.pre)


def annihilator_applies(T, v, poly):
    """Exact check that poly(T) v = 0 via the apply chain."""
    F = T.field
    acc = FiniteVector.zero(F)
    power = v
    for c in poly.coeffs:
        if c != F.zero:
            acc = acc + power.scale(c)
        power = T.apply(power)
    return acc.is_zero()


def _dense(v, slots):
    """The entries of v as a dense list over coordinates: slots maps basis
    indices to coordinates and gives each index new to it the next free one,
    so a sparse vector far out on the sequence stays a short list."""
    for i in v.entries:
        slots.setdefault(i, len(slots))
    out = [0] * len(slots)
    for i, x in v.entries.items():
        out[slots[i]] = x
    return out


def krylov_torsion(T, v, depth=64):
    """Semi-decision of whether v is annihilated by a nonzero polynomial in
    T.  Builds v, Tv, T^2 v, ... until a linear dependence appears (torsion,
    annihilator verified by applying it) or the growth certificate fires
    (certified non-torsion) or depth runs out."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    F = check_same_field(T.field, v.field)
    cert = growth_certificate_data(T)
    echelon = Echelon(F, track=True)
    slots = {}  # in order of first appearance: the relation does not depend on it
    seen_max = -1
    current = v
    for k in range(depth + 1):
        relation = echelon.add(_dense(current, slots))
        if relation is not None:
            poly = Polynomial(F, relation)
            if not annihilator_applies(T, v, poly):
                raise InvariantViolated(f"Krylov relation {poly} does not annihilate {v}")
            return TorsionReport("torsion", annihilator=poly.monic(), depth_used=k)
        m = current.max_index()
        if cert is not None and m >= cert[1] and m > seen_max:
            return TorsionReport(
                "non_torsion",
                depth_used=k,
                certificate={
                    "top_offset": cert[0],
                    "preperiod_bound": cert[1],
                    "leading_index": m,
                    "step": k,
                },
            )
        seen_max = max(seen_max, m)
        current = T.apply(current)
    return TorsionReport("unknown", depth_used=depth)


# ---------------------------------------------------------------------------
# Closure of the diagonalizable operators
# ---------------------------------------------------------------------------

class ClosureReport:
    __slots__ = ("outcome", "semi_decided", "witness", "witness_annihilator", "detail")

    def __init__(self, outcome, semi_decided, witness=None,
                 witness_annihilator=None, detail=""):
        self.outcome = outcome
        self.semi_decided = semi_decided
        self.witness = witness
        self.witness_annihilator = witness_annihilator
        self.detail = detail

    def __repr__(self):
        tail = " (semi-decided)" if self.semi_decided else ""
        return f"{self.outcome}{tail}: {self.detail}"


def largest_invariant_subspace(T, basis, window):
    """Largest subspace of span(basis) (RREF rows of length ``window``) whose
    image under T stays inside the window and inside itself, found by
    stabilizing W <- {u in W : Tu in W}.  Returns its RREF rows (the basis
    itself when its span is already invariant) and the matrix X of T on
    them: column j holds the coordinates of the image of row j, which are
    its entries at the pivot columns of the rows."""
    F = T.field
    reach = window + max(0, T.max_offset())
    pad = [F.zero] * (reach - window)
    while basis:
        span = Subspace(F, reach, [list(row) + pad for row in basis])
        images = [T.apply(FiniteVector(F, dict(enumerate(row)))).to_list(reach)
                  for row in basis]
        residues = [span.residue(img) for img in images]
        if not any(any(r) for r in residues):
            return basis, Matrix._of(F, [[img[c] for img in images] for c in span.pivots()])
        combos = Matrix.from_cols(F, residues).kernel_basis()
        B = Matrix.from_cols(F, basis)
        rows, piv = rref_rows([B.matvec(c) for c in combos], F) if combos else ([], [])
        basis = [list(r) for r in rows[: len(piv)]]
    return [], Matrix._of(F, [])


def closure_membership(T, window, depth=64):
    """Is T in the closure of the diagonalizable operators?

    Over a prime field the set is closed and the T^p = T test is a total
    decision.  Over Q, T belongs to the closure iff it is diagonalizable on
    its torsion part; when the growth certificate pins the torsion part into
    a finite window this is decided exactly (semi_decided False), otherwise
    the window generators are probed and a clean InClosure answer is only
    "no obstruction found" (semi_decided True).  A NotInClosure answer is
    always exact: it carries a verified torsion vector whose annihilator
    fails to split simply.  ``depth`` bounds the Krylov probes of the window
    route only.

    The window route probes each window vector by itself and answers
    unknown at the first one left unresolved.  Torsion hidden in
    combinations across generators is not enumerated, which is why its
    InClosure answers are semi-decided.
    """
    F = T.field
    if F.char > 0:
        ok = finite_field_diag_check(T)
        return ClosureReport(
            "in_closure" if ok else "not_in_closure",
            semi_decided=False,
            detail="T^p = T holds" if ok else "T^p differs from T",
        )
    if not window:
        raise ValueError("a nonempty window is required over Q")
    cert = growth_certificate_data(T)
    if cert is not None:
        # every torsion vector lives in span(v_0 .. v_{theta-1}), so the
        # torsion part is the largest invariant subspace of that span
        theta = cert[1]
        identity = [list(r) for r in Matrix.identity(F, theta).rows]
        basis, X = largest_invariant_subspace(T, identity, theta)
        if not basis:
            return ClosureReport(
                "in_closure", semi_decided=False,
                detail="torsion part is zero (growth certificate)",
            )
        res = diagonalize_finite(X)
        if res.ok:
            return ClosureReport(
                "in_closure", semi_decided=False,
                detail=f"diagonalizable on the {len(basis)}-dimensional torsion part",
            )
        witness, ann = _nonsplit_witness(T, basis, X)
        return ClosureReport(
            "not_in_closure", semi_decided=False,
            witness=witness, witness_annihilator=ann,
            detail="torsion part carries a non-semisimple block",
        )
    reports = []
    for w in window:
        rep = krylov_torsion(T, w, depth)
        if rep.outcome == "unknown":
            return ClosureReport("unknown", semi_decided=True,
                                 detail="torsion status unresolved at this depth")
        reports.append(rep)
    for w, rep in zip(window, reports):
        if rep.outcome == "torsion" and not poly_splits_simply(rep.annihilator).splits:
            return ClosureReport(
                "not_in_closure", semi_decided=False,
                witness=w, witness_annihilator=rep.annihilator,
                detail="window vector with non-split-simple annihilator",
            )
    return ClosureReport(
        "in_closure", semi_decided=True,
        detail="no obstruction found on the supplied window",
    )


def _nonsplit_witness(T, basis_rows, X):
    """A basis row of the torsion span whose annihilator fails the
    split-simply test; one exists whenever T is not diagonalizable there.

    Column j of X holds the coordinates of T applied to row j, so row i has
    the annihilator of e_i under the finite matrix X, and the Krylov chains
    of X find it without applying T.  The witness is certified by applying
    its annihilator with T.
    """
    F = T.field
    for row, ann in zip(basis_rows, krylov_annihilators(X)):
        if not poly_splits_simply(ann).splits:
            v = FiniteVector(F, {i: x for i, x in enumerate(row)})
            if not annihilator_applies(T, v, ann):
                raise InvariantViolated(f"Krylov relation {ann} does not annihilate {v}")
            return v, ann
    raise InvariantViolated("no witness in a non-diagonalizable torsion part")
