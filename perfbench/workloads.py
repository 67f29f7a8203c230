"""The four query workloads: inputs, their known answers, and the checks.

Every input is built from the seed with the benchmark's own arithmetic
(``exact``, ``trees``), never with diagalg, and carries the answer its
construction fixes.  A query is either a CLI argument list, answered by
``diagalg.cli.main``, or a direct call (``Query.direct``) for the tree and
family certificates that have no CLI command.  ``Query.check`` takes the
exit code and the captured report (or the returned object of a direct call)
and returns None when the answer is right, else the reason it is wrong.

Each workload is a fixed list of strata (command, field, size class, truth
class) with a fixed count per stratum, so two seeds differ in values only,
never in mix.  Sizes stay inside the documented input domain by design.
"""

import json
from fractions import Fraction
from math import gcd

import exact as X
import trees


class Query:
    __slots__ = ("command", "stratum", "argv", "direct", "check")

    def __init__(self, command, stratum, check, argv=None, direct=None):
        self.command = command
        self.stratum = stratum
        self.check = check
        self.argv = argv
        self.direct = direct


def _report(out, code, expect_code):
    """Parse a CLI report and check its exit code; returns (report, error)."""
    if code != expect_code:
        return None, f"exit {code}, expected {expect_code}"
    try:
        rep = json.loads(out)
    except ValueError:
        return None, "report is not JSON"
    if rep.get("exit") != code:
        return None, "report exit differs from the process exit"
    return rep, None


# -- dense matrices over Q and F_p ----------------------------------------------

Q_VALUES = [Fraction(v) for v in range(-12, 13)]
Q_FRACTIONS = [Fraction(a, b) for a in range(-5, 6) for b in (2, 3) if gcd(a, b) == 1]


def _values(p, rng, count, fractions=False):
    """``count`` distinct scalars of the field."""
    if p:
        return rng.sample(range(p), count)
    pool = Q_VALUES + (Q_FRACTIONS if fractions else [])
    return rng.sample(pool, count)


def _spectrum(p, rng, n, distinct, shape, fractions=False):
    """Block-diagonal spectrum of size n: shape 'diag' (n scalars with
    exactly ``distinct`` values), 'jordan' (a 2x2 or 3x3 Jordan block plus
    scalars) or 'quad' (a companion block of an irreducible quadratic)."""
    if shape == "diag":
        vals = _values(p, rng, distinct, fractions)
        scalars = vals + [rng.choice(vals) for _ in range(n - distinct)]
        rng.shuffle(scalars)
        return X.Spectrum(p, scalars=scalars)
    if shape == "jordan":
        k = 2 if n < 4 else 2 + n % 2
        vals = _values(p, rng, min(distinct, p or distinct), fractions)
        lam = vals[0]
        return X.Spectrum(p, scalars=[rng.choice(vals) for _ in range(n - k)],
                          jordans=[(lam, k)])
    vals = _values(p, rng, min(distinct, p or distinct), fractions)
    return X.Spectrum(p, scalars=[rng.choice(vals) for _ in range(n - 2)],
                      quadratics=[X.irreducible_quadratic(p, rng)])


def _conjugated(p, rng, spec):
    P, Pinv = X.unimodular_pair(spec.n, rng, p)
    return X.conjugate(spec.matrix, P, Pinv, p)


def diag_finite(p, rng, n, distinct, shape, fractions=False):
    spec = _spectrum(p, rng, n, distinct, shape, fractions)
    T = _conjugated(p, rng, spec)

    def check(code, out):
        rep, err = _report(out, code, 0 if spec.diagonalizable else 1)
        if err:
            return err
        if not spec.diagonalizable:
            if X.parse_list(rep["mu"], p) != spec.mu:
                return "minimal polynomial differs from the construction"
            return None
        P = X.parse_matrix(rep["p"], p)
        D = X.parse_matrix(rep["d"], p)
        if not X.is_diagonal(D):
            return "D is not diagonal"
        if sorted(D[i][i] for i in range(n)) != spec.eigenvalues:
            return "eigenvalues differ from the construction"
        if X.mat_mul(T, P, p) != X.mat_mul(P, D, p):
            return "T P != P D"
        if X.rank(P, p) != n:
            return "P is singular"
        return None

    stratum = f"diag-finite {X.field_name(p)} n={n} distinct={distinct} {shape}"
    return Query("diag-finite", stratum, check,
                 argv=["diag-finite", "--field", X.field_name(p), "--text", X.fmt_matrix(T, p)])


def classical(p, rng, n, distinct, shape):
    spec = _spectrum(p, rng, n, distinct, shape)
    T = _conjugated(p, rng, spec)
    roots = sorted(set(spec.eigenvalues))

    def check(code, out):
        ok = spec.diagonalizable
        rep, err = _report(out, code, 0 if ok else 1)
        if err:
            return err
        if rep["consistent"] is not True:
            return "report says the equivalences disagree"
        if X.parse_list(rep["mu"], p) != spec.mu or rep["algebra_dim"] != len(spec.mu) - 1:
            return "minimal polynomial differs from the construction"
        if rep["splits_simply"] != ok or (p and rep.get("power_identity") != ok):
            return "split or power-identity verdict differs from the construction"
        if not ok:
            return None
        idems = [X.parse_matrix(E, p) for E in rep["idempotents"]]
        seen = set()
        total = [[X.norm(0, p)] * n for _ in range(n)]
        for E in idems:
            TE = X.mat_mul(T, E, p)
            lam = next((r for r in roots if TE == X.mat_scale(E, r, p)), None)
            if lam is None or lam in seen or not any(any(r) for r in E):
                return "an idempotent is not a spectral projection"
            seen.add(lam)
            total = X.mat_add(total, E, p)
        if len(seen) != len(roots) or total != X.identity(n, p):
            return "idempotents do not sum to the identity"
        return None

    stratum = f"classical {X.field_name(p)} n={n} distinct={distinct} {shape}"
    return Query("classical", stratum, check,
                 argv=["classical", "--field", X.field_name(p), "--text", X.fmt_matrix(T, p)])


def simdiag(p, rng, n, count, shape):
    P, Pinv = X.unimodular_pair(n, rng, p)
    expect = None
    if shape == "joint":
        specs = [_spectrum(p, rng, n, min(n, 3, p or 3), "diag") for _ in range(count)]
        mats = [X.conjugate(s.matrix, P, Pinv, p) for s in specs]
    elif shape == "notdiag":
        lam, mu_val = _values(p, rng, 2)
        rest = [_values(p, rng, 1)[0] for _ in range(n - 2)]
        # Spectrum puts scalars before Jordan blocks, so the 2x2 scalar
        # blocks below line up with the Jordan block and all members commute
        bad = X.Spectrum(p, scalars=rest, jordans=[(mu_val, 2)])
        blocks = [X.Spectrum(p, scalars=rest + [lam, lam]).matrix, bad.matrix]
        if count == 3:
            blocks.append(X.Spectrum(p, scalars=rest + [mu_val, mu_val]).matrix)
        mats = [X.conjugate(B, P, Pinv, p) for B in blocks]
        expect = {"index": 1, "mu": bad.mu}
    else:
        Q, Qinv = X.unimodular_pair(n, rng, p)
        while True:
            specs = [_spectrum(p, rng, n, min(n, 3, p or 3), "diag") for _ in range(count)]
            mats = [X.conjugate(s.matrix, P, Pinv, p) for s in specs[:-1]]
            mats.append(X.conjugate(specs[-1].matrix, Q, Qinv, p))
            pairs = [[i, j] for i in range(count) for j in range(i + 1, count)
                     if X.mat_mul(mats[i], mats[j], p) != X.mat_mul(mats[j], mats[i], p)]
            if pairs:
                expect = pairs[0]
                break

    def check(code, out):
        rep, err = _report(out, code, 0 if shape == "joint" else 1)
        if err:
            return err
        if shape == "noncommuting":
            if rep["reason"] != "noncommuting" or rep["witness"] != expect:
                return "wrong non-commuting witness"
            return None
        if shape == "notdiag":
            w = rep["witness"]
            if (rep["reason"] != "notdiagonalizable" or w["index"] != expect["index"]
                    or X.parse_list(w["mu"], p) != expect["mu"]):
                return "wrong non-diagonalizable witness"
            return None
        Pout = X.parse_matrix(rep["p"], p)
        if X.rank(Pout, p) != n:
            return "joint eigenbasis is singular"
        cols = X.transpose(Pout)
        for A in mats:
            for c in cols:
                img = X.mat_vec(A, c, p)
                k = next(i for i, x in enumerate(c) if x)
                lam = img[k] * X.inv(c[k], p)
                if img != [X.norm(lam * x, p) for x in c]:
                    return "a column of P is not a common eigenvector"
        return None

    text = "\n".join("matrix " + X.fmt_matrix(A, p) for A in mats)
    return Query("simdiag", f"simdiag {X.field_name(p)} n={n} k={count} {shape}", check,
                 argv=["simdiag", "--field", X.field_name(p), "--text", text])


def crt(p, rng, degree, shape):
    cap = p or degree
    if shape == "splits":
        roots = _values(p, rng, min(degree, cap), fractions=True)
        f = X.poly_linear_product(roots, p)
    elif shape == "repeated":
        roots = _values(p, rng, min(degree - 1, cap), fractions=True)
        f = X.poly_linear_product(roots + [roots[0]] * (degree - len(roots)), p)
    else:
        roots = _values(p, rng, min(degree - 2, cap), fractions=True)
        f = X.poly_mul(X.poly_linear_product(roots, p), X.irreducible_quadratic(p, rng), p)
    scale = X.norm(rng.choice([1, 2, 3, -1]), p) or X.norm(1, p)
    f = [X.norm(scale * c, p) for c in f]
    expect_roots = sorted(set(roots))

    def check(code, out):
        rep, err = _report(out, code, 0 if shape == "splits" else 1)
        if err:
            return err
        if shape != "splits":
            return None if rep["verdict"] == "does_not_split_simply" else "wrong verdict"
        if [X.parse_scalar(r, p) for r in rep["roots"]] != expect_roots:
            return "roots differ from the construction"
        idems = [X.parse_list(e, p) for e in rep["idempotents"]]
        for i, e in enumerate(idems):
            for j, r in enumerate(expect_roots):
                if X.poly_eval(e, r, p) != X.norm(int(i == j), p):
                    return "an idempotent is not a Lagrange idempotent"
        return None

    return Query("crt", f"crt {X.field_name(p)} degree={degree} {shape}", check,
                 argv=["crt", "--field", X.field_name(p), "--text", X.fmt_list(f, p)])


def radical(p, rng, degree, nilpotent):
    """Q[x]/(f) (or F_p[x]/(f)) by structure constants; the radical is
    (s)/(f) for s the squarefree part of f."""
    cap = p or degree
    if nilpotent:
        roots = _values(p, rng, max(1, min(degree // 2, cap)))
        mults = [1] * len(roots)
        mults[0] += degree - len(roots)
    else:
        roots = _values(p, rng, min(degree, cap))
        mults = [1] * len(roots)
    factors = [([X.norm(-r, p), X.norm(1, p)], m) for r, m in zip(roots, mults)]
    if len(roots) < degree and not nilpotent:
        factors.append((X.irreducible_quadratic(p, rng), 1))
    f = [X.norm(1, p)]
    s = [X.norm(1, p)]
    for g, m in factors:
        f = X.poly_mul(f, X.poly_pow(g, m, p), p)
        s = X.poly_mul(s, g, p)
    d = len(f) - 1
    lines = [f"field {X.field_name(p)}", f"algebra dim={d}",
             "unit " + X.fmt_list([1] + [0] * (d - 1), p)]
    for i in range(d):
        for j in range(d):
            _, r = X.poly_divmod([0] * (i + j) + [1], f, p)
            for k, c in enumerate(r):
                if c:
                    lines.append(f"sc ({i},{j},{k})={X.fmt_scalar(c, p)}")
    rad_dim = d - (len(s) - 1)

    def check(code, out):
        rep, err = _report(out, code, 0 if rad_dim == 0 else 1)
        if err:
            return err
        if rep["radical_dim"] != rad_dim or len(rep["radical_basis"]) != rad_dim:
            return "radical dimension differs from the construction"
        for g in rep["radical_basis"]:
            if X.poly_divmod(X.poly_trim(X.parse_list(g, p)), s, p)[1]:
                return "a radical basis element is not a multiple of the squarefree part"
        return None

    return Query("radical", f"radical {X.field_name(p)} dim={d} nilpotent={nilpotent}", check,
                 argv=["radical", "--text", "\n".join(lines)])


def duality(p, rng, n):
    m = max(1, 3 * n // 4)
    images = [rng.randrange(m) for _ in range(n)]

    def check(code, out):
        rep, err = _report(out, code, 0)
        if err:
            return err
        H = X.parse_matrix(rep["hom_matrix"], p)
        want = [[int(images[x] == y) for y in range(m)] for x in range(n)]
        return None if H == want and rep["verdict"] == "round_trips" else "wrong dual map"

    return Query("duality-check", f"duality-check {X.field_name(p)} points={n}", check,
                 argv=["duality-check", "--field", X.field_name(p),
                       "--text", f"map {n}->{m} [{','.join(map(str, images))}]"])


def spec0(p, rng, n):
    def check(code, out):
        rep, err = _report(out, code, 0)
        if err:
            return err
        ideals = rep["ideals"]
        if rep["points"] != n or [i["point"] for i in ideals] != list(range(n)):
            return "wrong ideal list"
        if any(i["basis_size"] != n - 1 for i in ideals):
            return "wrong ideal codimension"
        return None

    return Query("spec0", f"spec0 {X.field_name(p)} points={n}", check,
                 argv=["spec0", "--field", X.field_name(p), "--text", str(n)])


# -- banded operators --------------------------------------------------------------

def _tail_diag(p, rng):
    return ([X.norm(rng.randint(-2, 2), p) for _ in range(2)],
            [X.norm(rng.randint(-2, 2), p) for _ in range(2)])


def _window_operator(p, rng, A, shift_tail):
    """A in the upper-left k x k window, a periodic diagonal beyond it, and
    (with shift_tail) v_j -> v_{j+1} for j >= k.  Returns the bands."""
    k = len(A)
    bands = {d: (pre, [X.norm(0, p)]) for d, pre in X.window_bands(A, p).items()}
    zero = [X.norm(0, p)] * k
    pre0 = bands.get(0, (zero, None))[0]
    tpre, tper = _tail_diag(p, rng)
    bands[0] = (pre0 + tpre, tper)
    if shift_tail:
        bands[1] = (bands.get(1, (list(zero), None))[0], [X.norm(1, p)])
    return bands


def _hessenberg(p, rng, spec):
    """U B U^-1 with U upper unitriangular: upper Hessenberg, so the only
    entry below the window diagonal band is the subdiagonal."""
    U, Uinv = X.upper_unimodular_pair(spec.n, rng, p, entries=(-1, 0, 0, 1))
    return X.conjugate(spec.matrix, U, Uinv, p)


def torsion(rng, depth, shape, size):
    """``size`` is the window for torsion vectors, else the support of v."""
    p = 0
    if shape == "torsion":
        k = size
        spec = _spectrum(p, rng, k, k // 2, ("diag", "jordan", "quad")[k % 3])
        A = _hessenberg(p, rng, spec)
        bands = _window_operator(p, rng, A, True)
        v = {i: Fraction(rng.choice((-2, -1, 1, 2, 3))) for i in range(k)}
        krylov = [[v.get(i, 0) for i in range(k)]]
        for _ in range(k):
            krylov.append(X.mat_vec(A, krylov[-1], p))
        deg = X.rank(krylov, p)
        stratum = f"torsion window={k}"
    else:
        s = size
        if shape == "non_torsion":
            L = depth // 4 + s
        else:
            L = rng.randint(depth + s, depth + s + 32)
        # unit entries keep the iterates' growth (and cost) close across seeds;
        # the last one differs from the period so the preperiod stays L long
        top = [Fraction(rng.choice((-1, 1))) for _ in range(L - 1)] + [Fraction(-1)]
        bands = {1: (top, [Fraction(1)]), 0: _tail_diag(p, rng),
                 -1: ([Fraction(0)] + [Fraction(rng.choice((-1, 1))) for _ in range(3)],
                      [Fraction(1)])}
        v = {i: Fraction(rng.choice((-1, 1, 2))) for i in range(s)}
        step = max(0, L - s + 1)
        stratum = f"torsion {shape} depth={depth}"

    def check(code, out):
        expect = {"torsion": 0, "non_torsion": 1, "unknown": 2}[shape]
        rep, err = _report(out, code, expect)
        if err:
            return err
        if rep["verdict"] != shape:
            return "wrong verdict"
        if shape == "torsion":
            a = X.parse_list(rep["annihilator"], p)
            if a[-1] != 1 or len(a) - 1 != deg:
                return "annihilator is not monic of the Krylov degree"
            return None if not X.op_poly_apply(a, bands, v, p) else "annihilator does not kill v"
        if shape == "unknown":
            return None if rep["depth_used"] == depth else "wrong depth used"
        cert = rep["certificate"]
        want = {"top_offset": 1, "preperiod_bound": L, "leading_index": s - 1 + step,
                "step": step}
        return None if cert == want else "wrong growth certificate"

    text = X.op_text(p, bands) + "\n" + X.vec_text(v, p)
    return Query("torsion", stratum, check,
                 argv=["torsion", "--depth", str(depth), "--text", text])


def closure(rng, theta, shape):
    """A growth-certified operator whose torsion part is exactly the window
    span(v_0 .. v_{theta-1}), where it acts as a known Hessenberg matrix."""
    p = 0
    spec = _spectrum(p, rng, theta, min(theta // 2, 6), shape)
    A = _hessenberg(p, rng, spec)
    bands = _window_operator(p, rng, A, True)
    inside = spec.diagonalizable

    def check(code, out):
        rep, err = _report(out, code, 0 if inside else 1)
        if err:
            return err
        if rep["semi_decided"] is not False:
            return "growth-certified case reported as semi-decided"
        if inside:
            return None if rep["verdict"] == "in_closure" else "wrong verdict"
        w = {}
        for chunk in rep["witness"].split()[1:]:
            i, x = chunk.split(":")
            w[int(i)] = X.parse_scalar(x, p)
        a = X.parse_list(rep["witness_annihilator"], p)
        if X.op_poly_apply(a, bands, w, p):
            return "witness annihilator does not kill the witness"
        if not any(not X.poly_divmod(a, b, p)[1] for b in spec.bad_factors):
            return "witness annihilator has no non-semisimple factor"
        return None

    text = X.op_text(p, bands) + "\nvec 0:1"
    return Query("closure", f"closure theta={theta} {shape}", check,
                 argv=["closure", "--text", text])


def diag_ffield(rng, p, k, shape):
    if shape == "shift":
        spec = _spectrum(p, rng, k, min(k, p, 4), "diag")
    else:
        spec = _spectrum(p, rng, k, min(k, p, 4), shape)
    A = _conjugated(p, rng, spec)
    bands = _window_operator(p, rng, A, shape == "shift")
    ok = shape == "diag"

    def check(code, out):
        rep, err = _report(out, code, 0 if ok else 1)
        if err:
            return err
        want = "diagonalizable" if ok else "not_diagonalizable"
        return None if rep["verdict"] == want else "wrong verdict"

    return Query("diag-ffield", f"diag-ffield F{p} window={k} {shape}", check,
                 argv=["diag-ffield", "--text", X.op_text(p, bands)])


def _seq_equal(f, g, bound):
    return all(f(j) == g(j) for j in range(bound))


def _op_matches(out_bands, entry, bound, p):
    """Does the parsed operator agree with ``entry(i, j)`` at every entry
    with column below ``bound``?"""
    for d, seq in out_bands.items():
        if not _seq_equal(lambda j: X.band_at(seq, j),
                          lambda j: X.norm(entry(j + d, j) if j + d >= 0 else 0, p), bound):
            return False
    for j in range(bound):
        for i in range(bound + 8):
            if entry(i, j) and (i - j) not in out_bands:
                return False
    return True


def _coloring(rng, shape, allow_zero):
    """A coloring with ``shape = (colors, preperiod, period)``."""
    colors, pre_len, per_len = shape
    lo = 0 if allow_zero else 1
    pre = [rng.randint(lo, colors) for _ in range(pre_len)]
    per = [rng.randint(lo, colors) for _ in range(per_len)]
    return pre, per


def _partition_text(pre, per):
    return f"field Q\npartition pre=[{','.join(map(str, pre))}] per=[{','.join(map(str, per))}]"


def _color_at(pre, per, j):
    return pre[j] if j < len(pre) else per[(j - len(pre)) % len(per)]


def summable(rng, kind, shape):
    """A partition or explicit family with coloring ``shape`` (see
    ``_coloring``), or a pattern family with ``shape = (a, i0, offdiag)``:
    slope a from base index i0 (validation cost grows with both)."""
    p = 0
    if kind == "partition":
        pre, per = _coloring(rng, shape, False)
        text = _partition_text(pre, per)
        bound = len(pre) + 2 * len(per) + 8

        def entry(i, j):
            return 1 if i == j else 0
        summ, to_one = True, True
    elif kind == "explicit":
        pre, per = _coloring(rng, shape, True)
        if not any(pre + per):
            per[0] = 1
        used = sorted((set(pre) | set(per)) - {0})
        blocks = []
        for c in used:
            ind_pre = [int(x == c) for x in pre]
            ind_per = [int(x == c) for x in per]
            blocks.append(f"band 0: pre={X.fmt_list(ind_pre, p)} per={X.fmt_list(ind_per, p)}")
        text = f"field Q\nexplicit {len(blocks)}\n" + "\n---\n".join(blocks)
        bound = len(pre) + 2 * len(per) + 8

        def entry(i, j):
            return 1 if i == j and _color_at(pre, per, j) in used else 0
        summ = True
        to_one = all(_color_at(pre, per, j) != 0 for j in range(bound))
    else:
        a, i0, offdiag = shape
        R = sorted(rng.sample(range(a), a // 2))
        terms = [(a, r, a, r) for r in R]
        if offdiag:
            terms.append((a, R[0], a, rng.choice([r for r in range(a) if r not in R])))
        summ = kind == "pattern"
        if not summ:
            # a fixed column below every row the other terms reach
            c = rng.randrange(a * i0 + R[0])
            terms.append((a, R[0], 0, c))
        body = ", ".join(f"(r={ar}*i{br:+d}, c={ac}*i{bc:+d})" for ar, br, ac, bc in terms)
        text = f"field Q\npattern i0={i0} terms[{body}]"
        bound = a * (i0 + 4) + 8

        def entry(i, j):
            for ar, br, ac, bc in terms:
                if (i - br) % ar == 0 and (i - br) // ar >= i0:
                    t = (i - br) // ar
                    if ac * t + bc == j:
                        return 1
            return 0
        to_one = False

    def check(code, out):
        rep, err = _report(out, code, 0 if summ else 1)
        if err:
            return err
        if not summ:
            return None if rep["witness_index"] == c else "wrong non-summability witness"
        if rep["sums_to_one"] is not to_one:
            return "wrong sums_to_one"
        ok = _op_matches(X.parse_operator(rep["sum"], p), entry, bound, p)
        return None if ok else "sum differs from the construction"

    return Query("summable", f"summable {kind}", check, argv=["summable", "--text", text])


def families(rng, shape, coloring):
    """Two commuting families summing to 1 (partition colorings), or a left
    family that does not sum to 1; a direct call."""
    E = _coloring(rng, coloring, False)
    F = _coloring(rng, coloring, False)
    text_f = _partition_text(*F)
    if shape == "joint":
        text_e = _partition_text(*E)
        bound = max(len(E[0]), len(F[0])) + len(E[1]) * len(F[1])
        pairs = {(_color_at(*E, j), _color_at(*F, j)) for j in range(bound)}
    else:
        text_e = "field Q\nexplicit 1\nband 0: pre=[1] per=[0]"
        pairs = None

    def check(code, res):
        if code != 0:
            return f"raised {res}"
        if shape != "joint":
            ok = not res.ok and res.reason == "left family does not sum to 1"
            return None if ok else "wrong refusal"
        if not res.ok or res.refined.kind != "partition":
            return "joint refinement refused"
        return None if len(res.refined.colors()) == len(pairs) else "wrong refinement size"

    return Query("families", f"families {shape}", check,
                 direct=("families", text_e, text_f))


def eigen_search(rng, M, k, shape):
    """Commuting window operators (common eigenvectors exist), or a pair
    whose only finite-support eigenvectors are window eigenvectors of the
    second that the first does not share; a direct call."""
    p = 0
    U, Uinv = X.unimodular_pair(k, rng, p)
    D1 = _spectrum(p, rng, k, k, "diag")
    A1 = X.conjugate(D1.matrix, U, Uinv, p)
    if shape == "found":
        A2 = X.conjugate(_spectrum(p, rng, k, k, "diag").matrix, U, Uinv, p)
    else:
        while True:
            V, Vinv = X.unimodular_pair(k, rng, p)
            A2 = X.conjugate(_spectrum(p, rng, k, k, "diag").matrix, V, Vinv, p)
            shared = False
            for c in X.transpose(V):
                img = X.mat_vec(A1, c, p)
                piv = next(i for i, x in enumerate(c) if x)
                if img == [img[piv] / c[piv] * x for x in c]:
                    shared = True
            if not shared:
                break
    ops = [_window_operator(p, rng, A1, False),
           _window_operator(p, rng, A2, shape != "found")]

    def check(code, res):
        if code != 0:
            return f"raised {res}"
        if res.found != (shape == "found"):
            return "wrong search verdict"
        if not res.found:
            return None
        v = dict(res.vector.entries)
        if not v or max(v) >= M:
            return "vector outside the window"
        for bands, lam in zip(ops, res.eigenvalues):
            if X.op_apply(bands, v, p) != {i: lam * x for i, x in v.items() if lam * x}:
                return "not a common eigenvector"
        return None

    return Query("eigen-search", f"eigen-search truncation={M} {shape}", check,
                 direct=("eigen_search", [X.op_text(p, b) for b in ops], M))


# -- trees ------------------------------------------------------------------------

def _tree_rows(text):
    """Node -> row count of a tree document, with its header."""
    lines = text.splitlines()
    head = lines[0].split()
    depth = int(head[1].split("=")[1])
    window = int(head[2].split("=")[1])
    counts = {}
    for line in lines[2:]:
        _, label, rows = line.split(" ", 2)
        counts["" if label == "." else label] = rows.count("],[") + 1
    return depth, window, counts


def tree_build(rng, depth, window):
    seed = rng.randrange(10 ** 6)

    def check(code, out):
        rep, err = _report(out, code, 0)
        if err:
            return err
        d, M, counts = _tree_rows(rep["document"])
        if (d, M) != (depth, window) or len(counts) != 2 ** (depth + 1) - 1:
            return "document has the wrong shape"
        for name, k in counts.items():
            if len(name) < depth and counts[name + "0"] + counts[name + "1"] != k:
                return "children dimensions do not add up"
        return None if counts[""] == window else "root is not the window"

    return Query("tree build", f"tree build depth={depth} window={window}", check,
                 argv=["tree", "build", "--depth", str(depth), "--truncate", str(window),
                       "--seed", str(seed)])


def tree_verify(doc, tamper):
    if tamper == "witness":
        text, clause, where = doc.tampered_witness(), "d", None
    elif tamper == "split":
        text, clause, where = doc.tampered_split(), "b", ""
    else:
        text, clause, where = doc.text(), None, None

    def check(code, out):
        rep, err = _report(out, code, 0 if clause is None else 1)
        if err:
            return err
        if clause is None:
            return None if rep["verdict"] == "pass" else "wrong verdict"
        if rep["clause"] != clause or (where is not None and rep["witness"] != where):
            return "tampered copy failed the wrong clause"
        return None

    return Query("tree verify",
                 f"tree verify depth={doc.depth} window={doc.window} {tamper or 'valid'}",
                 check, argv=["tree", "verify", "--text", text])


def tree_family(doc, level):
    M = doc.window
    names = trees.strings(level)

    def check(code, out):
        rep, err = _report(out, code, 0)
        if err:
            return err
        if rep["labels"] != names or len(rep["members"]) != len(names):
            return "wrong member list"
        total = [[0] * M for _ in range(M)]
        for name, text in zip(names, rep["members"]):
            W = X.op_window(X.parse_operator(text, 0), M + 2, 0)
            if any(W[i][j] for i in range(M + 2) for j in range(M + 2) if i >= M or j >= M):
                return "member leaves the window"
            if sum(W[i][i] for i in range(M)) != len(doc.nodes[name]):
                return "member trace differs from the node dimension"
            total = X.mat_add(total, [r[:M] for r in W[:M]], 0)
        return None if total == X.identity(M, 0) else "members do not sum to the identity"

    return Query("tree family", f"tree family depth={doc.depth} window={M} level={level}",
                 check, argv=["tree", "family", "--text", doc.text(), "--level", str(level)])


def tree_nce(doc, level):
    def check(code, res):
        if code != 0:
            return f"raised {res}"
        return None if res.confirmed else "found a common eigenvector"

    return Query("no_common_eigenvector",
                 f"no_common_eigenvector depth={doc.depth} window={doc.window} level={level}",
                 check, direct=("nce", doc.text(), level))


def tree_discreteness(doc):
    def check(code, res):
        if code != 0:
            return f"raised {res}"
        if not res.injective or res.rank != 2 ** doc.depth:
            return "witness components not independent"
        E = [list(r) for r in res.killer.rows]
        return None if trees.kills(E, doc.w) and any(any(r) for r in E) else "E does not kill w"

    return Query("discreteness_witness",
                 f"discreteness_witness depth={doc.depth} window={doc.window}", check,
                 direct=("discreteness", doc.text(), None))


# -- the workloads ----------------------------------------------------------------

def finite_q(rng):
    p = 0
    qs = []
    for i in range(40):
        n = 2 + i % 4
        qs.append(diag_finite(p, rng, n, 1 + i // 4 % n, ("diag", "jordan", "quad")[i % 3]))
    for i in range(14):
        n = 6 + i % 7
        qs.append(diag_finite(p, rng, n, (2, n)[i % 2], ("diag", "diag", "jordan", "quad")[i % 4],
                              fractions=i % 3 == 0))
    for i in range(12):
        # mid sizes that fill the latency range around the 90th percentile
        n = 9 + i % 6
        qs.append(diag_finite(p, rng, n, (3, n)[i % 2], ("diag", "diag", "jordan")[i % 3]))
    for n, distinct, shape in ((16, 3, "diag"), (16, 16, "diag"), (20, 3, "jordan"),
                               (20, 20, "diag")):
        qs.append(diag_finite(p, rng, n, distinct, shape))
    for i in range(20):
        n = 2 + i % 4
        qs.append(classical(p, rng, n, 1 + i // 4 % n, ("diag", "jordan", "quad")[i % 3]))
    for n, distinct in ((8, 8), (10, 3), (12, 4)):
        qs.append(classical(p, rng, n, distinct, "diag"))
    for i in range(12):
        shape = ("joint", "noncommuting", "notdiag")[i % 3]
        qs.append(simdiag(p, rng, 3 + i % 6, 2 + i % 2, shape))
    for i in range(16):
        shape = ("splits", "splits", "repeated", "irreducible")[i % 4]
        qs.append(crt(p, rng, 3 + (i * 5) % 10, shape))
    for i in range(10):
        qs.append(radical(p, rng, 2 + i % 5, i % 2 == 1))
    return qs


def finite_fp(rng):
    qs = []
    primes = (2, 3, 101, 2, 3, 101, 101, 65521)
    for i in range(40):
        p = primes[i % 8]
        n = 2 + i % 7
        shape = ("diag", "jordan", "quad")[i % 3]
        qs.append(diag_finite(p, rng, n, 1 + i // 8 % min(n, p), shape))
    for i in range(16):
        p = (2, 3, 101, 101)[i % 4]
        n = 10 + (i * 3) % 11
        qs.append(diag_finite(p, rng, n, min(p, (2, 6, n)[i % 3]), ("diag", "jordan")[i % 2]))
    for i in range(12):
        # mid sizes that fill the latency range around the 90th percentile
        p = (2, 3, 101)[i % 3]
        qs.append(diag_finite(p, rng, 14 + i, min(p, 2 + i % 4), ("diag", "jordan")[i % 2]))
    for p, n, distinct in ((2, 40, 2), (3, 30, 3), (101, 40, 6), (101, 40, 40), (101, 30, 4),
                           (65521, 20, 3)):
        qs.append(diag_finite(p, rng, n, distinct, "diag"))
    for i in range(16):
        p = primes[i % 8]
        n = 2 + i % 9
        qs.append(classical(p, rng, n, 1 + i // 8 % min(n, p), ("diag", "jordan", "quad")[i % 3]))
    for i in range(8):
        qs.append(simdiag((3, 101)[i % 2], rng, 3 + i % 6, 2 + i % 2,
                          ("joint", "noncommuting", "notdiag")[i % 3]))
    for i in range(12):
        p = (3, 101, 101, 65521)[i % 4]
        qs.append(crt(p, rng, 3 + (i * 5) % 10, ("splits", "repeated", "irreducible")[i % 3]))
    for i in range(8):
        qs.append(radical((2, 3, 101, 101)[i % 4], rng, 2 + i % 5, i % 2 == 1))
    for i in range(12):
        qs.append(duality((2, 3)[i % 2], rng, (10, 25, 50, 100)[i % 4]))
    for i in range(8):
        qs.append(spec0((2, 3, 101, 65521)[i % 4], rng, 1 + 7 * i))
    return qs


def banded(rng):
    qs = []
    depths = (64, 128, 192, 256)
    for i in range(20):
        qs.append(torsion(rng, depths[i % 4], "torsion", 6 + i % 11))
        qs.append(torsion(rng, depths[i % 4], "non_torsion", 1 + i % 4))
    for i, depth in enumerate((64, 64, 96, 128, 160, 192)):
        qs.append(torsion(rng, depth, "unknown", 1 + i % 4))
    for theta, shape in ((8, "diag"), (8, "jordan"), (10, "quad"), (12, "diag"), (12, "jordan"),
                         (16, "diag"), (16, "quad"), (16, "jordan"), (20, "diag"), (10, "jordan"),
                         (24, "diag"), (32, "diag")):
        qs.append(closure(rng, theta, shape))
    for i in range(28):
        p = (2, 3, 5, 7, 101)[i % 5]
        qs.append(diag_ffield(rng, p, 4 + i % 13, ("diag", "jordan", "shift", "quad")[i % 4]))
    colorings = [(2 + i % 4, i % 5, 1 + i % 6) for i in range(8)]
    for kind in ("partition", "explicit"):
        for coloring in colorings:
            qs.append(summable(rng, kind, coloring))
    qs.append(summable(rng, "pattern", (2, 0, True)))
    qs.append(summable(rng, "unsummable", (2, 1, False)))
    for i in range(10):
        qs.append(families(rng, ("joint", "joint", "joint", "refused")[i % 4],
                           (2 + i % 3, i % 4, 1 + i % 4)))
    for i in range(10):
        qs.append(eigen_search(rng, (8, 12, 16, 24, 32)[i % 5], 3 + i % 4,
                               ("found", "none")[i % 2]))
    return qs


TREE_SHAPES = ((1, 8), (1, 16), (2, 16), (2, 32), (3, 32), (3, 64), (4, 64))


def tree(rng):
    qs = []
    for depth, window in TREE_SHAPES + ((1, 8), (1, 16), (2, 16)):
        qs.append(tree_build(rng, depth, window))
    docs = [trees.build(depth, window, rng)
            for (depth, window), count in zip(TREE_SHAPES, (4, 4, 4, 3, 3, 1, 1))
            for _ in range(count)]
    for i, doc in enumerate(docs):
        qs.append(tree_verify(doc, None))
        qs.append(tree_verify(doc, ("witness", "split")[i % 2]))
        if i % 2 == 0:
            # a level-1 family at depth 4 already costs about 1 s
            qs.append(tree_family(doc, 0 if doc.depth == 4 else min(doc.depth, 3 - i // 2 % 4)))
        qs.append(tree_nce(doc, 1 + i % doc.depth))
        qs.append(tree_discreteness(doc))
    return qs


WORKLOADS = {
    "finite_q": finite_q,
    "finite_fp": finite_fp,
    "banded": banded,
    "tree": tree,
}
