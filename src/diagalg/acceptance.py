"""The acceptance suite: nine oracle- and property-based criteria, each a
pure function of a seed, returning a pass/fail result with a detail line.

The CLI `suite` subcommand and tests/test_acceptance.py both run these; a
fixed seed reproduces every random draw bit for bit.
"""

import random
import time
from fractions import Fraction

from .fields import EPSeq, GF, Polynomial, QQ, poly_splits_simply
from .funcalg import (
    classical_equivalences,
    crt_split,
    double_commutant_check,
    dual_map,
    matrix_algebra,
    poly_quotient_algebra,
    product_algebra,
    quotient_algebra,
    radical,
    radical_of_product,
    spec_of_hom,
    upper_triangular_algebra,
    SetMap,
)
from .idempotents import (
    ExplicitFamily,
    PartitionFamily,
    PatternFamily,
    product_family,
    simultaneous_diagonalize_families,
    summability,
)
from .linalg import Matrix, joint_eigenprojections, minimal_polynomial, poly_at_matrix
from .operators import (
    FiniteVector,
    Operator,
    annihilator_applies,
    closure_membership,
)
from . import treegen


class CriterionResult:
    __slots__ = ("key", "name", "passed", "detail", "elapsed")

    def __init__(self, key, name, passed, detail, elapsed):
        self.key = key
        self.name = name
        self.passed = passed
        self.detail = detail
        self.elapsed = elapsed

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.key} {self.name}: {self.detail} ({self.elapsed:.1f}s)"

    def as_dict(self, with_timing=True):
        out = {"criterion": self.key, "name": self.name,
               "passed": self.passed, "detail": self.detail}
        if with_timing:
            out["elapsed_s"] = round(self.elapsed, 3)
        return out


def _rng(seed, tag):
    return random.Random(f"{seed}:{tag}")


def _random_matrix(rng, field, n):
    if field.char == 0:
        return Matrix(field, [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                              for _ in range(n)])
    return Matrix(field, [[rng.randrange(field.char) for _ in range(n)]
                          for _ in range(n)])


def _random_invertible(rng, field, n):
    while True:
        P = _random_matrix(rng, field, n)
        if P.rank() == n:
            return P


def _random_diagonalizable(rng, field, n):
    if field.char == 0:
        values = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    else:
        values = [rng.randrange(field.char) for _ in range(n)]
    P = _random_invertible(rng, field, n)
    return P * Matrix.diagonal(field, values) * P.inverse()


def criterion_1(seed):
    """Classical coherence on random matrices over Q, F_3, F_5."""
    start = time.time()
    rng = _rng(seed, "classical")
    bad = 0
    total = 0
    for field in (QQ, GF(3), GF(5)):
        for t in range(500):
            n = rng.randint(1, 5)
            if t % 3 == 0:
                T = _random_diagonalizable(rng, field, n)
            else:
                T = _random_matrix(rng, field, n)
            rep = classical_equivalences(T)
            total += 1
            if not rep.consistent:
                bad += 1
    elapsed = time.time() - start
    ok = bad == 0 and elapsed < 60.0
    return CriterionResult(
        "C1", "classical equivalences coherent", ok,
        f"{total} matrices, {bad} disagreements", elapsed)


def _random_partition_family(rng, field):
    k = rng.randint(1, 4)
    pre = [rng.randint(1, k) for _ in range(rng.randint(0, 3))]
    per = [rng.randint(1, k) for _ in range(rng.randint(1, 4))]
    exceptions = {}
    for _ in range(rng.randint(0, 2)):
        exceptions[rng.randint(0, 6)] = rng.randint(1, k)
    return PartitionFamily(field, pre, per, exceptions)


def criterion_2(seed):
    """Summability: the non-summable pattern family, summable partitions and
    explicit families with verified sums, and summable subfamilies whose
    sums are least upper bounds: above each member, below the family sum."""
    start = time.time()
    rng = _rng(seed, "summability")
    failures = []
    pattern = PatternFamily(QQ, 1, [(1, 0, 0, 0), (1, 0, 1, 0)])
    rep = summability(pattern)
    if rep.summable or rep.witness_index != 0:
        failures.append("pattern family should fail at basis index 0")
    for t in range(100):
        field = (QQ, GF(2), GF(5))[t % 3]
        fam = _random_partition_family(rng, field)
        rep = summability(fam)
        if not rep.sums_to_one:
            failures.append(f"partition family #{t} not summable to 1")
            continue
        members = fam.members()
        keep = [m for m in members if rng.random() < 0.5] or members[:1]
        sub = ExplicitFamily(field, keep)
        sub_rep = summability(sub)
        if not sub_rep.summable:
            failures.append(f"subfamily of partition #{t} not summable")
            continue
        partial = Operator.zero(field)
        for m in keep:
            partial = partial + m
        if sub_rep.sum != partial or not sub_rep.sum.is_idempotent():
            failures.append(f"subfamily sum wrong for partition #{t}")
            continue
        # the subfamily sum is the least upper bound of its members: each
        # member sits below it, and it sits below the family sum, another
        # upper bound (f <= g means f g = g f = f)
        s, e = sub_rep.sum, rep.sum
        if any(m * s != m or s * m != m for m in keep):
            failures.append(f"a member of subfamily #{t} is not below its sum")
        elif s * e != s or e * s != s:
            failures.append(f"subfamily sum of partition #{t} not below the family sum")
    for t in range(20):
        field = (QQ, GF(3))[t % 2]
        k = rng.randint(1, 4)
        members = [Operator.matrix_unit(field, i, i) for i in rng.sample(range(8), k)]
        fam = ExplicitFamily(field, members)
        rep = summability(fam)
        if not rep.summable or not rep.sum.is_idempotent():
            failures.append(f"explicit family #{t} failed")
    elapsed = time.time() - start
    return CriterionResult(
        "C2", "summability and subfamilies", not failures,
        failures[0] if failures else "pattern + 100 partitions + 20 explicit",
        elapsed)


def criterion_3(seed):
    """Product-family marginal identities on random commuting partition pairs."""
    start = time.time()
    rng = _rng(seed, "products")
    failures = []
    for t in range(50):
        field = (QQ, GF(2), GF(7))[t % 3]
        E = _random_partition_family(rng, field)
        Ffam = _random_partition_family(rng, field)
        res = simultaneous_diagonalize_families(E, Ffam)
        if not res.ok:
            failures.append(f"pair #{t}: {res.reason}")
            continue
        e_sum = summability(E).sum
        f_sum = summability(Ffam).sum
        refined = summability(res.refined)
        if refined.sum != e_sum * f_sum:
            failures.append(f"pair #{t}: total product identity failed")
    elapsed = time.time() - start
    return CriterionResult(
        "C3", "product family identities", not failures,
        failures[0] if failures else "50 partition pairs", elapsed)


def criterion_4(seed):
    """Tree construction through depth 4 at minimal window size."""
    start = time.time()
    failures = []
    for n in range(0, 5):
        M = 2 ** (n + 2)
        d = treegen.build(n, M)
        rep = treegen.verify(d)
        if not rep.ok:
            failures.append(f"depth {n}: verify fails clause {rep.clause}")
            continue
        for m in range(1, n + 1):
            res = treegen.no_common_eigenvector(d, m)
            if not res.confirmed:
                failures.append(f"depth {n}: eigenvector search found {res.vector} at level {m}")
        if n >= 1:
            dw = treegen.discreteness_witness(d)
            if not dw.injective or dw.rank != 2 ** n:
                failures.append(f"depth {n}: discreteness rank {dw.rank} != {2 ** n}")
    elapsed = time.time() - start
    ok = not failures and elapsed < 120.0
    return CriterionResult(
        "C4", "tree decompositions", ok,
        failures[0] if failures else "depths 0..4 at minimal windows",
        elapsed)


def criterion_5(seed):
    """Closure membership: the shift over Q and F_2, and an embedded
    non-semisimple block over Q."""
    start = time.time()
    failures = []
    S = Operator.shift(QQ)
    rep = closure_membership(S, [FiniteVector.basis(QQ, 0)])
    if rep.outcome != "in_closure" or rep.semi_decided:
        failures.append(f"shift over Q: {rep.outcome}, semi={rep.semi_decided}")
    rep2 = closure_membership(Operator.shift(GF(2)), [])
    if rep2.outcome != "not_in_closure":
        failures.append(f"shift over F_2: {rep2.outcome}")
    # nilpotent 2x2 block at v_0, v_1 (v_0 -> v_1), zero tail
    J = Operator(QQ, {1: EPSeq(QQ, [1], [0])})
    rep3 = closure_membership(J, [FiniteVector.basis(QQ, 0), FiniteVector.basis(QQ, 1)])
    if rep3.outcome != "not_in_closure":
        failures.append(f"embedded nilpotent block: {rep3.outcome}")
    else:
        ann = rep3.witness_annihilator
        if not annihilator_applies(J, rep3.witness, ann):
            failures.append("closure witness annihilator does not verify")
        if poly_splits_simply(ann).splits:
            failures.append("closure witness annihilator unexpectedly splits")
    elapsed = time.time() - start
    return CriterionResult(
        "C5", "closure of diagonalizable operators", not failures,
        failures[0] if failures else "shift (Q and F_2) and embedded block behave",
        elapsed)


def _all_maps(x, y):
    if x == 0:
        return [SetMap(0, y, [])]
    if y == 0:
        return []
    out = []
    images = [0] * x
    while True:
        out.append(SetMap(x, y, list(images)))
        i = 0
        while i < x:
            images[i] += 1
            if images[i] < y:
                break
            images[i] = 0
            i += 1
        if i == x:
            return out


def criterion_6(seed):
    """Duality laws: exhaustive on sets of size <= 4 over F_2, random
    composition pairs on sizes <= 6 over Q."""
    start = time.time()
    rng = _rng(seed, "duality")
    failures = 0
    F2 = GF(2)
    maps = {}
    for x in range(5):
        for y in range(5):
            maps[(x, y)] = _all_maps(x, y)
    for (x, y), fs in maps.items():
        for phi in fs:
            h = dual_map(phi, F2)
            if spec_of_hom(h) != phi:
                failures += 1
            if dual_map(spec_of_hom(h), F2) != h:
                failures += 1
    for n in range(5):
        if dual_map(SetMap.identity(n), F2).matrix != Matrix.identity(F2, n):
            failures += 1
    for x in range(5):
        for y in range(5):
            for z in range(5):
                for phi in maps[(x, y)]:
                    for psi in maps[(y, z)]:
                        left = dual_map(psi.compose(phi), F2)
                        right = dual_map(phi, F2).compose(dual_map(psi, F2))
                        if left != right:
                            failures += 1
    for _ in range(200):
        x, y, z = (rng.randint(1, 6) for _ in range(3))
        phi = SetMap(x, y, [rng.randrange(y) for _ in range(x)])
        psi = SetMap(y, z, [rng.randrange(z) for _ in range(y)])
        left = dual_map(psi.compose(phi), QQ)
        right = dual_map(phi, QQ).compose(dual_map(psi, QQ))
        if left != right or spec_of_hom(left) != psi.compose(phi):
            failures += 1
    elapsed = time.time() - start
    return CriterionResult(
        "C6", "set/function-algebra duality", failures == 0,
        f"{failures} failures", elapsed)


def _radical_corpus():
    def quot(*coeffs):
        return poly_quotient_algebra(QQ, Polynomial(QQ, list(coeffs)))

    fields = [
        quot(0, 1),          # Q itself
        quot(-2, 0, 1),      # Q[x]/(x^2-2)
        quot(-1, -1, 1),     # Q[x]/(x^2-x-1)
        quot(1, 0, 1),       # Q[x]/(x^2+1)
    ]
    duals = [quot(*([0] * k + [1])) for k in range(2, 6)]  # Q[x]/(x^k)
    split = [quot(-1, 0, 1), quot(0, -1, 0, 1)]            # x^2-1, x^3-x
    mixed_quot = [quot(0, 0, -1, 1), quot(0, 1, -2, 1)]    # x^2(x-1), x(x-1)^2
    uts = [upper_triangular_algebra(QQ, 2), upper_triangular_algebra(QQ, 3)]
    mat = [matrix_algebra(QQ, 2)]
    singles = fields + duals + split + mixed_quot + uts + mat
    product_parts = [
        [fields[0], fields[0]],
        [duals[0], fields[0]],
        [duals[0], duals[1]],
        [fields[1], duals[0]],
        [uts[0], fields[0]],
        [uts[0], duals[0]],
        [mat[0], fields[0]],
        [split[0], duals[0]],
        [fields[2], fields[3]],
        [duals[2], fields[0]],
        [uts[0], split[0]],
        [fields[0], fields[1], duals[0]],
        [duals[0], duals[0], fields[0]],
        [fields[0], fields[0], fields[0], fields[0]],
        [mat[0], duals[0]],
    ]
    return singles, product_parts


def criterion_7(seed):
    """Radical suite: J(A/J(A)) = 0, product additivity, and the
    double-commutant identities on a fixed corpus."""
    start = time.time()
    failures = []
    singles, product_parts = _radical_corpus()
    corpus = list(singles) + [product_algebra(parts) for parts in product_parts]
    if len(corpus) != 30:
        failures.append(f"corpus has {len(corpus)} algebras, expected 30")
    for idx, A in enumerate(corpus):
        J = radical(A)
        Aq = quotient_algebra(A, J)
        if radical(Aq).dim != 0:
            failures.append(f"algebra #{idx}: J(A/J) != 0")
        rep = double_commutant_check(A)
        if not rep.commutant_is_rho or not rep.double_is_lambda:
            failures.append(f"algebra #{idx}: double commutant failed")
        if A.is_commutative() and rep.maximal_commutative is False:
            failures.append(f"algebra #{idx}: commutative image not maximal")
    for parts in product_parts:
        rep = radical_of_product(parts)
        if not rep.ok:
            failures.append("product radical mismatch")
        if rep.product_dim != sum(rep.factor_dims):
            failures.append("product radical dimension not additive")
    elapsed = time.time() - start
    return CriterionResult(
        "C7", "radical and double commutant suite", not failures,
        failures[0] if failures else f"30 algebras + {len(product_parts)} products",
        elapsed)


def _random_epseq(rng, field):
    def scal():
        if field.char == 0:
            return Fraction(rng.randint(-2, 2))
        return rng.randrange(field.char)

    pre = [scal() for _ in range(rng.randint(0, 2))]
    per = [scal() for _ in range(rng.randint(1, 3))]
    return EPSeq(field, pre, per)


def random_operator(rng, field, max_bands=3, max_corr=2):
    bands = {}
    for _ in range(rng.randint(1, max_bands)):
        d = rng.randint(-2, 3)
        seq = _random_epseq(rng, field)
        if d < 0:
            seq = seq.shift(d)  # pad zeros in front to respect row bounds
        bands[d] = bands[d] + seq if d in bands else seq
    corr = {}
    for _ in range(rng.randint(0, max_corr)):
        i, j = rng.randint(0, 5), rng.randint(0, 5)
        v = Fraction(rng.randint(-2, 2)) if field.char == 0 else rng.randrange(field.char)
        corr[(i, j)] = v
    return Operator(field, bands, corr)


def criterion_8(seed):
    """Truncation-with-padding multiplication oracle against the symbolic
    operator product on 40-windows."""
    start = time.time()
    rng = _rng(seed, "truncation")
    failures = 0
    window = 40
    for t in range(200):
        field = (QQ, GF(2), GF(5))[t % 3]
        A = random_operator(rng, field)
        B = random_operator(rng, field)
        pad = max(0, A.max_offset(), B.max_offset())
        big = window + pad
        dense = A.truncate(big) * B.truncate(big)
        top = Matrix(field, [row[:window] for row in dense.rows[:window]])
        if (A * B).truncate(window) != top:
            failures += 1
    elapsed = time.time() - start
    return CriterionResult(
        "C8", "operator ring vs truncation oracle", failures == 0,
        f"200 pairs on {window}-windows, {failures} mismatches",
        elapsed)


def criterion_9(seed):
    """Eigenspace refinement and the idempotent product-family construction
    agree on commuting diagonalizable pairs."""
    start = time.time()
    rng = _rng(seed, "simdiag")
    failures = 0
    for t in range(100):
        field = (QQ, GF(5), GF(7))[t % 3]
        n = rng.randint(2, 4)
        T = _random_diagonalizable(rng, field, n)
        polys = []
        for _ in range(2):
            coeffs = ([Fraction(rng.randint(-2, 2)) for _ in range(3)]
                      if field.char == 0 else
                      [rng.randrange(field.char) for _ in range(3)])
            polys.append(Polynomial(field, coeffs))
        T1 = poly_at_matrix(polys[0], T)
        T2 = poly_at_matrix(polys[1], T)
        refined = joint_eigenprojections([T1, T2])
        route_a = {Operator.from_matrix(field, proj) for _, proj in refined}

        def projection_family(M):
            mu = minimal_polynomial(M)
            split = crt_split(mu)
            mats = [poly_at_matrix(e, M) for e in split.idempotents]
            return ExplicitFamily(field, [Operator.from_matrix(field, E) for E in mats])

        fam = product_family(projection_family(T1), projection_family(T2))
        route_b = set(fam.members())
        if route_a != route_b:
            failures += 1
    elapsed = time.time() - start
    return CriterionResult(
        "C9", "simultaneous diagonalization cross-check", failures == 0,
        f"100 commuting pairs, {failures} mismatches", elapsed)


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
]


def run_all(seed=0):
    return [fn(seed) for fn in CRITERIA]
