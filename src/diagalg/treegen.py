"""Binary trees of nested subspace splittings inside a finite window.

The construction produces, for every binary string i of length <= n,
a subspace V_i of the M-dimensional window such that V_empty is the whole
window, every V_i is the direct sum of its children V_i0 and V_i1, the span
of the first |i| coordinate vectors meets V_i trivially, and a fixed witness
vector w has a nonzero component in every leaf.  The dimensions keep a
floor of floor(M / 2^level) - level, the finite stand-in for splitting
infinite-dimensional spaces in half.

The leaf projections of such a tree form orthogonal idempotent families,
one per level, each summing to the identity on the window and refining the
previous level; they commute, every member is diagonalizable, and the
witness vector makes the linear map (coefficients) -> (combination applied
to w) injective, which is the discreteness certificate for the span of the
whole family.

The splitting choices the construction is free to make are pinned down
canonically (extension vectors in increasing index order, alternating
assignment to children); a seed shuffles the candidate order for property
testing while staying reproducible.
"""

import random
from fractions import Fraction

from .errors import InvariantViolated, TruncationTooSmall, VerifyFailed
from .fields import QQ
from .linalg import Echelon, Matrix, Subspace, rref_rows
from .operators import FiniteVector, Operator


class TreeDecomposition:
    __slots__ = ("field", "depth", "window", "nodes", "w")

    def __init__(self, field, depth, window, nodes, w):
        self.field = field
        self.depth = depth
        self.window = window
        self.nodes = dict(nodes)
        self.w = tuple(w)

    def leaf_components(self):
        """Decomposition of w across the depth-n leaves, solving against the
        concatenated leaf bases."""
        F = self.field
        leaves = strings(self.depth)
        cols = [row for leaf in leaves for row in self.nodes[leaf].rows]
        X = Matrix.from_cols(F, cols).solve_matrix(Matrix(F, [[x] for x in self.w]))
        if X is None:
            raise VerifyFailed("witness vector does not decompose over the leaves")
        coords = [row[0] for row in X.rows]
        comps = {}
        offset = 0
        for leaf in leaves:
            rows = self.nodes[leaf].rows
            part = coords[offset:offset + len(rows)]
            offset += len(rows)
            comps[leaf] = (Matrix.from_cols(F, rows).matvec(part) if rows
                           else [F.zero] * self.window)
        return comps


def build(depth, window, seed=None):
    """Construct a decomposition of the given depth inside an M-dimensional
    window, M >= 2^(depth+2).  Only infinite scalar fields support the
    splitting argument, so the field is Q."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if window < 2 ** (depth + 2):
        raise TruncationTooSmall(f"window {window} < 2^{depth + 2}")
    F = QQ
    M = window
    rng = random.Random(seed) if seed is not None else None
    full = Subspace.full(F, M)
    nodes = {"": full}
    w = [F.one] + [F.zero] * (M - 1)
    comps = {"": w}

    for m in range(1, depth + 1):
        window_span = Subspace(F, M, [_unit(F, M, k) for k in range(m)])
        for name in strings(m - 1):
            V = nodes[name]
            wi = comps[name]
            pool = [list(r) for r in V.rows]
            if rng is not None:
                rng.shuffle(pool)
            S = window_span.intersection(V)
            if S.dim > 1:
                raise VerifyFailed("window span meets a node in dimension > 1")
            wi_line = Subspace.from_vectors(F, M, [wi])
            if S.is_zero() or wi_line.contains(S.rows[0]):
                v0_rows, v1_rows, w0, w1 = _split_case_one(F, V, wi, wi_line, pool)
            else:
                v0_rows, v1_rows, w0, w1 = _split_case_two(
                    F, M, V, wi, list(S.rows[0]), pool)
            nodes[name + "0"] = Subspace.from_vectors(F, M, v0_rows)
            nodes[name + "1"] = Subspace.from_vectors(F, M, v1_rows)
            comps[name + "0"] = w0
            comps[name + "1"] = w1
    return TreeDecomposition(F, depth, M, nodes, w)


def _unit(field, n, k):
    v = [field.zero] * n
    v[k] = field.one
    return v


def strings(length):
    """The binary strings of the given length in lexicographic order: the
    node names of one tree level."""
    if length == 0:
        return [""]
    return [s + b for s in strings(length - 1) for b in "01"]


def _split_case_one(F, V, wi, wi_line, pool):
    # S subset of span(wi): write wi = a + b with a, b independent in V
    half = Fraction(1, 2)
    u = next((row for row in pool if not wi_line.contains(row)), None)
    if u is None:
        raise TruncationTooSmall("node too small to split (needs dimension >= 2)")
    a = [F.mul(half, F.add(x, y)) for x, y in zip(wi, u)]
    b = [F.mul(half, F.sub(x, y)) for x, y in zip(wi, u)]
    ext = _complete(F, [a, b], pool, V.dim)
    v0 = [a] + ext[0::2]
    v1 = [b] + ext[1::2]
    return v0, v1, a, b


def _split_case_two(F, M, V, wi, g, pool):
    # S = span(g) with g, wi independent: pick a, b with {g, wi, a, b}
    # independent, put g - a and wi - b on one side, a and b on the other
    echelon = Echelon(F)
    for vec in (g, wi):
        echelon.add(vec)
    picks = []
    for row in pool:
        if echelon.add(row) is None:
            picks.append(row)
            if len(picks) == 2:
                break
    if len(picks) < 2:
        raise TruncationTooSmall("node too small to split (needs dimension >= 4)")
    a, b = picks
    ga = [F.sub(x, y) for x, y in zip(g, a)]
    wb = [F.sub(x, y) for x, y in zip(wi, b)]
    ext = _complete(F, [ga, wb, a, b], pool, V.dim)
    v0 = [ga, wb] + ext[0::2]
    v1 = [a, b] + ext[1::2]
    return v0, v1, wb, b


def _complete(F, seed_vecs, pool, target_dim):
    echelon = Echelon(F)
    for vec in seed_vecs:
        if echelon.add(vec) is not None:
            raise VerifyFailed("splitting seed vectors are dependent")
    ext = []
    for row in pool:
        if len(echelon) == target_dim:
            break
        if echelon.add(row) is None:
            ext.append(row)
    if len(echelon) != target_dim:
        raise VerifyFailed("could not complete a node basis")
    return ext


class VerifyReport:
    __slots__ = ("ok", "clause", "witness")

    def __init__(self, ok, clause=None, witness=None):
        self.ok = ok
        self.clause = clause
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "Pass" if self.ok else f"Fail(clause={self.clause}, witness={self.witness})"


def verify(d, check_witness=True):
    """Exact check of every structural clause: the root is the window, each
    node splits as the direct sum of its children, the first-|i| coordinate
    span meets each node trivially, dimensions respect the floor, and the
    witness has nonzero components in all leaves (skippable so that the
    discreteness certificate can report a tampered witness honestly).

    V meets the span of the first m coordinate vectors trivially exactly
    when dropping those coordinates is injective on V, i.e. when the basis
    rows cut to the columns >= m keep rank dim V.  The children form a
    direct sum equal to V exactly when their dimensions add up to dim V and
    they span V."""
    F = d.field
    M = d.window
    root = d.nodes.get("")
    # an RREF basis of M rows in K^M spans all of K^M
    if root is None or root.ambient != M or root.dim != M:
        return VerifyReport(False, "root", "")
    for m in range(d.depth + 1):
        for name in strings(m):
            V = d.nodes.get(name)
            if V is None:
                return VerifyReport(False, "missing-node", name)
            if m >= 1:
                _, pivots = rref_rows([row[m:] for row in V.rows], F)
                if len(pivots) != V.dim:
                    return VerifyReport(False, "a", name)
            floor = M // (2 ** m) - m
            if V.dim < floor:
                return VerifyReport(False, "c", name)
            if m < d.depth:
                left = d.nodes.get(name + "0")
                right = d.nodes.get(name + "1")
                if left is None or right is None:
                    return VerifyReport(False, "missing-node", name + "0/1")
                if left.dim + right.dim != V.dim:
                    return VerifyReport(False, "b", name)
                if (left + right) != V:
                    return VerifyReport(False, "b", name)
    if check_witness:
        try:
            comps = d.leaf_components()
        except VerifyFailed:
            return VerifyReport(False, "d", "w")
        for leaf, vec in comps.items():
            if all(x == F.zero for x in vec):
                return VerifyReport(False, "d", leaf)
    return VerifyReport(True)


def idempotent_family(d, level):
    """Projections onto the level's subspaces along their complements,
    embedded window-only (zero beyond the window), in binary-string order.

    Orthogonality (E_a E_b = delta_ab E_a for every pair, since
    E_a = B_a Binv_a) follows from Binv B = I, which ``B.inverse()`` has
    certified: it checks B Binv = I, and a one-sided inverse of a square
    matrix over a field is two-sided.  The sum to the identity on the
    window is checked.  The refinement E_a = E_a0 + E_a1 follows from
    clause b of ``verify``: V_a = V_a0 (+) V_a1, and V_a's complement at
    the level, the sum of the other nodes, is the sum of their children.
    """
    rep = verify(d)
    if not rep.ok:
        raise VerifyFailed(f"decomposition fails clause {rep.clause} at {rep.witness}")
    if not 0 <= level <= d.depth:
        raise ValueError("level out of range")
    F = d.field
    mats = [mat for _, mat in _level_projections(d, level)]
    if sum(mats, Matrix.zeros(F, d.window)) != Matrix.identity(F, d.window):
        raise InvariantViolated("level projections do not sum to the identity")
    return [Operator.from_matrix(F, mat) for mat in mats]


def _level_projections(d, level):
    """[(name, E_name)]: with B the matrix of the level's node bases as
    columns, E_name = B_name Binv_name is the projection onto the node along
    the other nodes of the level (B_name its columns, Binv_name its rows)."""
    F = d.field
    spans = []
    cols = []
    for name in strings(level):
        rows = d.nodes[name].rows
        spans.append((name, len(rows)))
        cols.extend(rows)
    B = Matrix.from_cols(F, cols)
    Binv = B.inverse()
    out = []
    offset = 0
    for name, k in spans:
        block = Matrix.from_cols(F, cols[offset:offset + k])
        rows_part = Matrix._of(F, Binv.rows[offset:offset + k])
        out.append((name, block * rows_part))
        offset += k
    return out


class EigenSearchReport:
    __slots__ = ("confirmed", "vector", "level")

    def __init__(self, confirmed, vector=None, level=None):
        self.confirmed = confirmed
        self.vector = vector
        self.level = level

    def __bool__(self):
        return self.confirmed

    def __repr__(self):
        return "Confirmed" if self.confirmed else f"CounterexampleFound({self.vector})"


def no_common_eigenvector(d, through_level):
    """Exhaustive common-eigenspace refinement of all level <= m projections
    over candidate vectors supported in the first m coordinates (the whole
    window when m = 0, where the single projection trivially has
    eigenvectors).

    ``verify`` certifies (root clause, clause b) that each level's nodes
    form a direct sum of the window, so a node's projection has the node as
    1-eigenspace and the other nodes' sum as 0-eigenspace: the joint
    eigenspaces of a level are its nodes, and S refines into each S & V_a.

    Confirmed means the refined common eigenspace is zero -- which clause
    (a) of the construction forces for every m >= 1; a counterexample is
    verified exactly and signals a construction bug.  As m grows the
    candidate spans exhaust the space, recovering the full no-common-
    eigenvector statement in the limit.
    """
    rep = verify(d)
    if not rep.ok:
        raise VerifyFailed(f"decomposition fails clause {rep.clause} at {rep.witness}")
    m = through_level
    if not 0 <= m <= d.depth:
        raise ValueError("level out of range")
    F = d.field
    M = d.window
    spaces = [Subspace(F, M, [_unit(F, M, k) for k in range(m or M)])]
    for level in range(m + 1):
        nodes = [d.nodes[name] for name in strings(level)]
        spaces = [cut for S in spaces for V in nodes
                  for cut in [S.intersection(V)] if not cut.is_zero()]
        if not spaces:
            return EigenSearchReport(True, level=m)
    v = list(spaces[0].rows[0])
    for level in range(0, m + 1):
        for _, E in _level_projections(d, level):
            img = E.matvec(v)
            if img != [F.zero] * M and img != v:
                raise InvariantViolated("refinement produced a non-eigenvector")
    return EigenSearchReport(False, vector=FiniteVector(F, dict(enumerate(v))), level=m)


class DiscretenessReport:
    __slots__ = ("injective", "rank", "leaf_count", "killer")

    def __init__(self, injective, rank, leaf_count, killer):
        self.injective = injective
        self.rank = rank
        self.leaf_count = leaf_count
        self.killer = killer

    def __bool__(self):
        return self.injective

    def __repr__(self):
        return (f"DiscretenessReport(injective={self.injective}, "
                f"rank={self.rank}/{self.leaf_count})")


def discreteness_witness(d):
    """Certificate that the span of the leaf projections meets the window
    annihilator of w only in zero: the map (coefficients) -> (combination
    applied to w) is injective, i.e. the matrix of leaf components of w has
    full column rank 2^depth.  Also builds the rank-(M-1) idempotent with
    w in its kernel that generates the annihilator ideal."""
    rep = verify(d, check_witness=False)
    if not rep.ok:
        raise VerifyFailed(f"decomposition fails clause {rep.clause} at {rep.witness}")
    if d.depth < 1:
        raise ValueError("discreteness certificate needs depth >= 1")
    F = d.field
    M = d.window
    comps = d.leaf_components()
    leaves = strings(d.depth)
    L = Matrix.from_cols(F, [comps[leaf] for leaf in leaves])
    rank = L.rank()
    injective = rank == len(leaves)
    # idempotent killing w: completing w by unit vectors skips exactly e_k0,
    # k0 the last support index of w, and the projection along w onto the
    # other unit vectors is E = I - w e_k0^T / w_k0
    w = [F.scalar(x) for x in d.w]
    k0 = max((k for k, x in enumerate(w) if x), default=None)
    if k0 is None:
        raise VerifyFailed("witness vector is zero")
    rows = [_unit(F, M, i) for i in range(M)]
    for i, x in enumerate(w):
        if x:
            rows[i][k0] = F.sub(rows[i][k0], F.div(x, w[k0]))
    E = Matrix._of(F, rows)
    if E * E != E or E.matvec(w) != [F.zero] * M:
        raise InvariantViolated("the annihilator idempotent fails E^2 = E or E w = 0")
    return DiscretenessReport(injective, rank, len(leaves), E)
