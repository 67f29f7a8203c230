"""Orthogonal families of idempotent operators and their infinite sums.

A family is summable exactly when every basis vector is moved by only
finitely many members; the sum is then the projection onto the direct sum
of the ranges along the intersection of the kernels, and it is assembled
here columnwise in the banded operator representation.

Three family shapes are supported.  A partition family colors the basis
indices with an eventually periodic coloring (plus finitely many
exceptions) and takes the diagonal 0/1 projection per color; these are
always summable with sum 1.  An explicit family is a finite list of
idempotent operators.  A pattern family is generated by matrix-unit
templates with affine index functions, one member per index i >= i0; its
orthogonality and summability are decided symbolically from the affine
forms (collisions at isolated indices are checked exactly).  Pattern
members whose templates collide are rejected outright; cancellation of
colliding units over small characteristic is not modeled.
"""

from math import gcd, lcm

from .errors import (
    InvalidFamily,
    InvariantViolated,
    NonCommuting,
    NotSummable,
    UnrepresentableSum,
)
from .fields import EPSeq, check_same_field, normalize_ep, poly_roots_in_field
from .linalg import Matrix, eigenspaces, minimal_polynomial, rref_rows
from .operators import FiniteVector, Operator, largest_invariant_subspace

INFINITE = "infinite"


class PartitionFamily:
    """One diagonal projection per color of an eventually periodic coloring
    of the basis indices (colors are positive ints)."""

    kind = "partition"

    def __init__(self, field, pre, per, exceptions=None):
        self.field = field
        pre = [int(c) for c in pre]
        per = [int(c) for c in per]
        if not per:
            raise InvalidFamily("coloring needs a nonempty period")
        exceptions = {int(i): int(c) for i, c in (exceptions or {}).items()}
        if any(c < 1 for c in pre + per + list(exceptions.values())):
            raise InvalidFamily("colors must be >= 1")
        # fold exceptions below the preperiod into it, drop redundant ones
        top = max(exceptions, default=-1) + 1
        base_len = max(len(pre), top)
        expanded = [self._base_at(pre, per, j) for j in range(base_len)]
        for i, c in exceptions.items():
            expanded[i] = c
        self.pre, self.per = normalize_ep(expanded, per)

    @staticmethod
    def _base_at(pre, per, j):
        if j < len(pre):
            return pre[j]
        return per[(j - len(pre)) % len(per)]

    def color_at(self, j):
        if j < len(self.pre):
            return self.pre[j]
        return self.per[(j - len(self.pre)) % len(self.per)]

    def colors(self):
        occurring = set(self.per)
        occurring.update(self.pre)
        return sorted(occurring)

    def member(self, color):
        F = self.field
        pre = [F.one if c == color else F.zero for c in self.pre]
        per = [F.one if c == color else F.zero for c in self.per]
        return Operator.diagonal(F, EPSeq(F, pre, per))

    def members(self):
        return [self.member(c) for c in self.colors()]

    def support_indices(self, j):
        return {self.colors().index(self.color_at(j))}

    def __repr__(self):
        return f"partition pre={list(self.pre)} per={list(self.per)}"


class ExplicitFamily:
    kind = "explicit"

    def __init__(self, field, members):
        self.field = field
        self.ops = list(members)
        for op in self.ops:
            check_same_field(field, op.field)

    def members(self):
        return list(self.ops)

    def support_indices(self, j):
        F = self.field
        out = set()
        for idx, op in enumerate(self.ops):
            if not op.apply(FiniteVector.basis(F, j)).is_zero():
                out.add(idx)
        return out

    def __repr__(self):
        return f"explicit({len(self.ops)} members)"


class PatternFamily:
    """E_i = sum of matrix units at affine positions (ar*i+br, ac*i+bc),
    one member for every i >= i0."""

    kind = "pattern"

    def __init__(self, field, i0, terms):
        self.field = field
        self.i0 = int(i0)
        self.terms = tuple((int(a), int(b), int(c), int(d)) for a, b, c, d in terms)
        if not self.terms:
            raise InvalidFamily("pattern family needs at least one term")
        for ar, br, ac, bc in self.terms:
            if ar < 0 or ac < 0:
                raise InvalidFamily("negative index slope")
            if ar * self.i0 + br < 0 or ac * self.i0 + bc < 0:
                raise InvalidFamily("negative position at the base index")

    def member(self, i):
        if i < self.i0:
            raise InvalidFamily(f"member index {i} below base {self.i0}")
        corr = {}
        F = self.field
        for ar, br, ac, bc in self.terms:
            pos = (ar * i + br, ac * i + bc)
            corr[pos] = F.add(corr.get(pos, F.zero), F.one)
        return Operator(F, corrections=corr)

    def members(self, limit=8):
        return [self.member(i) for i in range(self.i0, self.i0 + limit)]

    def support_indices(self, j):
        out = set()
        for ar, br, ac, bc in self.terms:
            if ac == 0:
                if bc == j:
                    return INFINITE
                continue
            num = j - bc
            if num % ac == 0 and num // ac >= self.i0:
                out.add(num // ac)
        return out

    def __repr__(self):
        body = ", ".join(f"(r={a}*i+{b}, c={c}*i+{d})" for a, b, c, d in self.terms)
        return f"pattern i0={self.i0} terms[{body}]"


class ValidationReport:
    __slots__ = ("ok", "witness", "detail")

    def __init__(self, ok, witness=None, detail=""):
        self.ok = ok
        self.witness = witness
        self.detail = detail

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "Valid" if self.ok else f"Invalid({self.detail})"


def _cross_collision(ac, bc, ar, br, i0):
    """Does ac*i + bc == ar*j + br have a solution with i, j >= i0 and
    i != j?  Returns a witness pair or None."""
    if ac == 0 and ar == 0:
        return (i0, i0 + 1) if bc == br else None
    if ac == 0:
        num = bc - br
        if num % ar:
            return None
        j = num // ar
        if j < i0:
            return None
        i = i0 if i0 != j else i0 + 1
        return (i, j)
    if ar == 0:
        num = br - bc
        if num % ac:
            return None
        i = num // ac
        if i < i0:
            return None
        j = i0 if i0 != i else i0 + 1
        return (i, j)
    # both slopes >= 1 here (family terms never have negative slopes)
    g = gcd(ac, ar)
    rhs = br - bc
    if rhs % g:
        return None
    x, y = _bezout(ac, -ar)
    d = ac * x - ar * y  # = +-g
    scale = rhs // d
    ip, jp = x * scale, y * scale  # ac*ip - ar*jp = rhs
    si, sj = ar // g, ac // g  # homogeneous direction, both >= 1
    t0 = max(_ceil_div(i0 - ip, si), _ceil_div(i0 - jp, sj))
    for t in range(t0, t0 + 3):
        i, j = ip + si * t, jp + sj * t
        if i >= i0 and j >= i0 and i != j:
            return (i, j)
    return None


def _ceil_div(a, b):
    return -(-a // b)


def _bezout(a, b):
    """x, y with a*x + b*y equal to a euclidean gcd of (a, b) up to sign."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_x, old_y


def _affine_eq(ac, bc, ar, br):
    return ac == ar and bc == br


def _pattern_self_check(fam, sample_bound):
    """Symbolic idempotency of every member plus exact checks at the
    sampled and exceptional indices."""
    terms = fam.terms
    exceptional = set()
    generic_products = []
    for (ar1, br1, ac1, bc1) in terms:
        for (ar2, br2, ac2, bc2) in terms:
            if _affine_eq(ac1, bc1, ar2, br2):
                generic_products.append((ar1, br1, ac2, bc2))
            elif ac1 != ar2:
                num = br2 - bc1
                den = ac1 - ar2
                if num % den == 0 and num // den >= fam.i0:
                    exceptional.add(num // den)
            # ac1 == ar2 with bc1 != br2: never equal
    if sorted(generic_products) != sorted(terms):
        i = fam.i0
        while i in exceptional:
            i += 1
        E = fam.member(i)
        if not E.is_idempotent():
            return ValidationReport(False, witness=(i, i, E * E - E),
                                    detail=f"member {i} is not idempotent")
    for i in sorted(exceptional | set(range(fam.i0, fam.i0 + sample_bound))):
        E = fam.member(i)
        if not E.is_idempotent():
            return ValidationReport(False, witness=(i, i, E * E - E),
                                    detail=f"member {i} is not idempotent")
    return ValidationReport(True)


def _pattern_cross_check(fam, sample_bound):
    exact_pairs = set()
    for (_, _, ac1, bc1) in fam.terms:
        for (ar2, br2, _, _) in fam.terms:
            hit = _cross_collision(ac1, bc1, ar2, br2, fam.i0)
            if hit is not None:
                exact_pairs.add(hit)
    for i in range(fam.i0, fam.i0 + sample_bound):
        for j in range(fam.i0, fam.i0 + sample_bound):
            if i != j:
                exact_pairs.add((i, j))
    for (i, j) in sorted(exact_pairs):
        prod = fam.member(i) * fam.member(j)
        if not prod.is_zero():
            return ValidationReport(False, witness=(i, j, prod),
                                    detail=f"members {i} and {j} are not orthogonal")
    return ValidationReport(True)


def validate(family, sample_bound=24):
    """Orthogonality and idempotency of the family: symbolic where the shape
    allows it, exact on everything at indices below sample_bound."""
    if sample_bound < 1:
        raise ValueError("sample_bound must be >= 1")
    if family.kind == "partition":
        return ValidationReport(True)  # disjoint 0/1 diagonals by construction
    if family.kind == "explicit":
        ops = family.ops
        for a, op in enumerate(ops):
            if not op.is_idempotent():
                return ValidationReport(False, witness=(a, a, op * op - op),
                                        detail=f"member {a} is not idempotent")
        for a in range(len(ops)):
            for b in range(len(ops)):
                if a != b:
                    prod = ops[a] * ops[b]
                    if not prod.is_zero():
                        return ValidationReport(
                            False, witness=(a, b, prod),
                            detail=f"members {a} and {b} are not orthogonal")
        return ValidationReport(True)
    rep = _pattern_self_check(family, sample_bound)
    if not rep.ok:
        return rep
    return _pattern_cross_check(family, sample_bound)


class SummabilityReport:
    """The verdict, the sum when there is one, and whether that sum is the
    identity (``sums_to_one``), so that no caller re-validates the family."""

    __slots__ = ("summable", "sum", "witness_index", "sums_to_one")

    def __init__(self, summable, sum_op=None, witness_index=None):
        self.summable = summable
        self.sum = sum_op
        self.witness_index = witness_index
        self.sums_to_one = summable and sum_op == Operator.identity(sum_op.field)

    def __bool__(self):
        return self.summable

    def __repr__(self):
        if self.summable:
            return "Summable"
        return f"NotSummable(witness j={self.witness_index})"


def summability(family):
    """Decide summability from the family's kind and terms and, in the
    summable case, build the sum in the banded representation.

    For a partition family the supports are singletons and the members sum
    to the identity.  A finite explicit family is always summable.  A
    pattern family fails exactly when some template hits a fixed column for
    every member index; the witness is that column.
    """
    rep = validate(family)
    if not rep.ok:
        raise InvalidFamily(rep.detail)
    F = family.field
    if family.kind == "partition":
        total = Operator.zero(F)
        for op in family.members():
            total = total + op
        rep = SummabilityReport(True, total)
        if not rep.sums_to_one:
            raise InvariantViolated("partition family does not sum to the identity")
        return rep
    if family.kind == "explicit":
        total = Operator.zero(F)
        for op in family.ops:
            total = total + op
        if not total.is_idempotent():
            raise InvariantViolated("explicit family sum is not idempotent")
        return SummabilityReport(True, total)
    # pattern family
    for (_, _, ac, bc) in family.terms:
        if ac == 0:
            return SummabilityReport(False, witness_index=bc)
    bands = {}
    for (ar, br, ac, bc) in family.terms:
        if ar != ac:
            raise UnrepresentableSum(
                "summable pattern sum leaves the banded class "
                f"(term slopes {ar} != {ac})")
        start = ac * family.i0 + bc
        d = br - bc
        seq = EPSeq(F, [0] * start, [1] + [0] * (ac - 1))
        bands[d] = bands[d] + seq if d in bands else seq
    total = Operator(F, bands)
    if not total.is_idempotent():
        raise InvariantViolated("pattern family sum is not idempotent")
    return SummabilityReport(True, total)


def _combined_partition(E, F_fam):
    field = E.field
    L = max(len(E.pre), len(F_fam.pre))
    per_len = lcm(len(E.per), len(F_fam.per))
    ids = {}
    pre = []
    for j in range(L):
        pair = (E.color_at(j), F_fam.color_at(j))
        pre.append(ids.setdefault(pair, len(ids) + 1))
    per = []
    for j in range(L, L + per_len):
        pair = (E.color_at(j), F_fam.color_at(j))
        per.append(ids.setdefault(pair, len(ids) + 1))
    return PartitionFamily(field, pre, per)


def _product(E, F_fam, rep_e, rep_f):
    """The product family of two summable families (given with their
    summability reports), their members, and the table of products E_i F_j.
    NonCommuting names the first pair of members that do not commute;
    pattern families are refused after that check; the product family's sum
    is certified as (sum E)(sum F)."""
    e_members = E.members()
    f_members = F_fam.members()
    table = []
    for a, ea in enumerate(e_members):
        row = []
        for b, fb in enumerate(f_members):
            p = ea * fb
            if p != fb * ea:
                raise NonCommuting(f"members {a} and {b} do not commute")
            row.append(p)
        table.append(row)
    if E.kind == "pattern" or F_fam.kind == "pattern":
        raise InvalidFamily("products of pattern families are not representable")
    if E.kind == "partition" and F_fam.kind == "partition":
        out = _combined_partition(E, F_fam)
    else:
        out = ExplicitFamily(E.field, [p for row in table for p in row if not p.is_zero()])
    rep_out = summability(out)
    if not rep_out.summable:
        raise InvariantViolated("product family is not summable")
    if rep_out.sum != rep_e.sum * rep_f.sum:
        raise InvariantViolated("product family sum differs from the product of the sums")
    return out, e_members, f_members, table


def product_family(E, F_fam):
    """The family of pairwise products {E_i F_j} with zero members dropped.

    Requires both families summable and all members commuting pairwise; the
    result's sum is asserted equal to (sum E)(sum F).  Partition families
    combine into the refined partition; anything else finite combines into
    an explicit family.  Products with pattern families would need a
    two-index shape that the representation does not carry.
    """
    check_same_field(E.field, F_fam.field)
    if E.kind == "pattern" or F_fam.kind == "pattern":
        raise InvalidFamily("products of pattern families are not representable")
    rep_e = summability(E)
    rep_f = summability(F_fam)
    if not rep_e.summable:
        raise NotSummable(f"left family (witness j={rep_e.witness_index})")
    if not rep_f.summable:
        raise NotSummable(f"right family (witness j={rep_f.witness_index})")
    return _product(E, F_fam, rep_e, rep_f)[0]


class SimDiagFamilies:
    __slots__ = ("ok", "refined", "reason")

    def __init__(self, ok, refined=None, reason=None):
        self.ok = ok
        self.refined = refined
        self.reason = reason

    def __bool__(self):
        return self.ok


def simultaneous_diagonalize_families(E, F_fam):
    """Refine two commuting summable families with sum 1 into their product
    family, asserting the marginal identities sum_j E_i F_j = E_i and
    sum_i E_i F_j = F_j.  The refinement sums to 1 because its sum is
    certified as (sum E)(sum F) and both factors are 1."""
    try:
        rep_e = summability(E)
        if not rep_e.sums_to_one:
            return SimDiagFamilies(False, reason="left family does not sum to 1")
        rep_f = summability(F_fam)
        if not rep_f.sums_to_one:
            return SimDiagFamilies(False, reason="right family does not sum to 1")
        refined, e_members, f_members, table = _product(E, F_fam, rep_e, rep_f)
    except (InvalidFamily, NotSummable, NonCommuting) as exc:
        return SimDiagFamilies(False, reason=str(exc))
    for ea, row in zip(e_members, table):
        total = Operator.zero(E.field)
        for p in row:
            total = total + p
        if total != ea:
            raise InvariantViolated("row marginal failed")
    for b, fb in enumerate(f_members):
        total = Operator.zero(E.field)
        for row in table:
            total = total + row[b]
        if total != fb:
            raise InvariantViolated("column marginal failed")
    return SimDiagFamilies(True, refined=refined)


class SearchResult:
    __slots__ = ("found", "vector", "eigenvalues", "truncation")

    def __init__(self, found, vector=None, eigenvalues=None, truncation=None):
        self.found = found
        self.vector = vector
        self.eigenvalues = eigenvalues
        self.truncation = truncation

    def __bool__(self):
        return self.found

    def __repr__(self):
        if self.found:
            return f"Found({self.vector})"
        return f"NoneWithin({self.truncation})"


def _eigen_split(basis, X):
    """The eigenspaces of the map with matrix X on span(basis) (column j of
    X holds the coordinates of the image of basis row j), as (lam, RREF
    rows) pairs."""
    F = X.field
    B = Matrix.from_cols(F, basis)
    out = []
    for lam, combos in eigenspaces(X, poly_roots_in_field(minimal_polynomial(X))):
        rows, piv = rref_rows([B.matvec(c) for c in combos], F)
        out.append((lam, [list(r) for r in rows[: len(piv)]]))
    return out


def common_eigenvector_search(ops, truncation):
    """Search for a vector supported below ``truncation`` that is an
    eigenvector of every operator, by iterated refinement: cut to vectors
    whose image stays inside the window, pass to the largest invariant
    subspace, split into exact eigenspaces, and repeat per operator.  Any
    candidate is verified exactly against the untruncated operators, and an
    empty refinement proves there is no such vector in the window.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if not ops:
        raise ValueError("empty operator list")
    field = ops[0].field
    for op in ops:
        check_same_field(field, op.field)
    M = truncation
    spaces = [[list(r) for r in Matrix.identity(field, M).rows]]
    for T in ops:
        new_spaces = []
        for basis in spaces:
            basis, X = largest_invariant_subspace(T, basis, M)
            if basis:
                new_spaces += [rows for _lam, rows in _eigen_split(basis, X)]
        spaces = new_spaces
        if not spaces:
            return SearchResult(False, truncation=truncation)
    for basis in spaces:
        if basis:
            v = FiniteVector(field, dict(enumerate(basis[0])))
            lams = _verify_common_eigenvector(ops, v)
            if lams is not None:
                return SearchResult(True, vector=v, eigenvalues=lams,
                                    truncation=truncation)
    return SearchResult(False, truncation=truncation)


def _verify_common_eigenvector(ops, v):
    lams = []
    for T in ops:
        img = T.apply(v)
        if img.is_zero():
            lams.append(T.field.zero)
            continue
        idx = img.max_index()
        if v.at(idx) == T.field.zero:
            return None
        lam = T.field.div(img.at(idx), v.at(idx))
        if img != v.scale(lam):
            return None
        lams.append(lam)
    return lams
