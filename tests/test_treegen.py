import math

import pytest

from diagalg.errors import InvariantViolated, TruncationTooSmall, VerifyFailed
from diagalg.fields import GF, QQ
from diagalg.linalg import Matrix, Subspace
from diagalg import treegen
from diagalg.treegen import TreeDecomposition

from oracles import sympy_rank


class TestBuild:
    def test_depth_zero_base_case(self):
        d = treegen.build(0, 8)
        assert d.nodes[""] == Subspace.full(QQ, 8)
        assert list(d.w) == [1] + [0] * 7
        assert treegen.verify(d).ok

    def test_depth_one(self):
        d = treegen.build(1, 8)
        assert treegen.verify(d).ok
        assert d.nodes["0"].dim >= 3 and d.nodes["1"].dim >= 3
        assert d.nodes["0"].dim + d.nodes["1"].dim == 8

    def test_depth_two_node_count(self):
        d = treegen.build(2, 16)
        assert len(d.nodes) == 7  # 1 + 2 + 4

    def test_preconditions(self):
        with pytest.raises(TruncationTooSmall):
            treegen.build(2, 8)

    def test_determinism_and_seeds(self):
        from diagalg.textio import format_tree
        a = treegen.build(2, 16)
        b = treegen.build(2, 16)
        assert format_tree(a) == format_tree(b)
        s1 = treegen.build(2, 16, seed=5)
        s2 = treegen.build(2, 16, seed=5)
        assert format_tree(s1) == format_tree(s2)
        assert treegen.verify(s1).ok
        for seed in range(4):
            assert treegen.verify(treegen.build(2, 16, seed=seed)).ok

    def test_window_disjointness_explicit(self):
        d = treegen.build(3, 32)
        for m in range(1, 4):
            span = Subspace.from_vectors(
                QQ, 32, [[1 if i == k else 0 for i in range(32)] for k in range(m)])
            for name in treegen.strings(m):
                assert span.intersection(d.nodes[name]).is_zero()


class TestVerify:
    def test_tamper_child_equals_parent(self):
        d = treegen.build(2, 16)
        nodes = dict(d.nodes)
        nodes["00"] = nodes["0"]
        bad = TreeDecomposition(QQ, 2, 16, nodes, d.w)
        rep = treegen.verify(bad)
        assert not rep.ok and rep.clause == "b"

    def test_tamper_witness_in_single_leaf(self):
        d = treegen.build(2, 16)
        w_bad = list(d.nodes["00"].rows[0])
        bad = TreeDecomposition(QQ, 2, 16, dict(d.nodes), w_bad)
        rep = treegen.verify(bad)
        assert not rep.ok and rep.clause == "d"

    def test_tamper_root(self):
        d = treegen.build(1, 8)
        nodes = dict(d.nodes)
        nodes[""] = nodes["0"]
        rep = treegen.verify(TreeDecomposition(QQ, 1, 8, nodes, d.w))
        assert not rep.ok and rep.clause in ("root", "b")

    def test_root_one_dimension_short(self):
        d = treegen.build(1, 8)
        nodes = dict(d.nodes)
        nodes[""] = Subspace.from_vectors(QQ, 8, Matrix.identity(QQ, 8).rows[1:])
        assert nodes[""].dim == 7
        rep = treegen.verify(TreeDecomposition(QQ, 1, 8, nodes, d.w))
        assert not rep.ok and rep.clause == "root"

    def test_missing_root(self):
        d = treegen.build(1, 8)
        nodes = {name: V for name, V in d.nodes.items() if name}
        rep = treegen.verify(TreeDecomposition(QQ, 1, 8, nodes, d.w))
        assert not rep.ok and rep.clause == "root" and rep.witness == ""

    def test_dimension_floor(self):
        for n, M in [(1, 8), (2, 16), (3, 32)]:
            d = treegen.build(n, M)
            for name, V in d.nodes.items():
                assert V.dim >= M // (2 ** len(name)) - len(name)


class TestIdempotentFamily:
    def test_level_zero_is_window_identity(self):
        d = treegen.build(1, 8)
        ops = treegen.idempotent_family(d, 0)
        from diagalg.operators import Operator
        assert len(ops) == 1
        assert ops[0] == Operator.from_matrix(QQ, Matrix.identity(QQ, 8))

    def test_level_one_complementary(self):
        d = treegen.build(1, 8)
        ops = treegen.idempotent_family(d, 1)
        assert len(ops) == 2
        total = ops[0] + ops[1]
        from diagalg.operators import Operator
        assert total == Operator.from_matrix(QQ, Matrix.identity(QQ, 8))
        assert (ops[0] * ops[1]).is_zero()

    def test_refinement_identity(self):
        d = treegen.build(2, 16)
        level1 = treegen.idempotent_family(d, 1)
        level2 = treegen.idempotent_family(d, 2)
        labels1 = treegen.strings(1)
        labels2 = treegen.strings(2)
        by_label = dict(zip(labels2, level2))
        for label, op in zip(labels1, level1):
            assert op == by_label[label + "0"] + by_label[label + "1"]

    def test_projection_ranges(self):
        d = treegen.build(1, 8)
        ops = treegen.idempotent_family(d, 1)
        from diagalg.operators import FiniteVector
        for name, op in zip(treegen.strings(1), ops):
            for row in d.nodes[name].rows:
                v = FiniteVector(QQ, dict(enumerate(row)))
                assert op.apply(v) == v


class TestNoCommonEigenvector:
    def test_level_zero_counterexample(self):
        d = treegen.build(1, 8)
        rep = treegen.no_common_eigenvector(d, 0)
        assert not rep.confirmed and rep.vector is not None

    def test_confirmed_at_positive_levels(self):
        for n, M in [(1, 8), (2, 16)]:
            d = treegen.build(n, M)
            for m in range(1, n + 1):
                assert treegen.no_common_eigenvector(d, m).confirmed

    def test_confirmed_under_seeds(self):
        for seed in range(3):
            d = treegen.build(2, 16, seed=seed)
            assert treegen.no_common_eigenvector(d, 2).confirmed


class TestDiscreteness:
    def test_rank_matches_leaf_count(self):
        for n, M in [(1, 8), (2, 16)]:
            d = treegen.build(n, M)
            rep = treegen.discreteness_witness(d)
            assert rep.injective and rep.rank == 2 ** n
            comps = d.leaf_components()
            cols = [comps[leaf] for leaf in treegen.strings(n)]
            assert sympy_rank([list(col) for col in zip(*cols)]) == 2 ** n

    def test_killer_idempotent(self):
        d = treegen.build(2, 16)
        rep = treegen.discreteness_witness(d)
        E = rep.killer
        assert E * E == E
        assert E.matvec(list(d.w)) == [QQ.zero] * 16
        assert E.rank() == 15

    def test_tampered_witness_not_injective(self):
        d = treegen.build(2, 16)
        w_bad = list(d.nodes["01"].rows[0])  # lives in one leaf only
        bad = TreeDecomposition(QQ, 2, 16, dict(d.nodes), w_bad)
        rep = treegen.discreteness_witness(bad)
        assert not rep.injective and rep.rank < 4

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            treegen.discreteness_witness(treegen.build(0, 8))


class TestSerialization:
    def test_round_trip(self):
        from diagalg.textio import format_tree, parse_tree
        d = treegen.build(2, 16)
        text = format_tree(d)
        d2 = parse_tree(text)
        assert d2.nodes == d.nodes and tuple(d2.w) == d.w
        assert format_tree(d2) == text

    def test_verify_on_load(self):
        from diagalg.errors import ParseError
        from diagalg.textio import format_tree, parse_tree
        d = treegen.build(1, 8)
        nodes = dict(d.nodes)
        nodes["0"] = nodes["1"]
        bad = TreeDecomposition(QQ, 1, 8, nodes, d.w)
        with pytest.raises(ParseError):
            parse_tree(format_tree(bad))

    def test_tree_verify_coerces_each_scalar_once(self, monkeypatch, capsys):
        from diagalg import cli
        from diagalg.fields import Rationals
        from diagalg.textio import format_tree
        text = format_tree(treegen.build(2, 16, seed=3))
        counts = {"parse_scalar": 0, "scalar": 0}
        for name in counts:
            real = getattr(Rationals, name)

            def counted(self, x, real=real, name=name):
                counts[name] += 1
                return real(self, x)

            monkeypatch.setattr(Rationals, name, counted)
        assert cli.main(["tree", "verify", "--text", text]) == 0
        assert '"verdict": "pass"' in capsys.readouterr().out
        # every node row and the witness: 16 scalars per row
        assert counts["parse_scalar"] == 16 * (text.count("],[") + text.count("node") + 1)
        assert counts["scalar"] <= counts["parse_scalar"]


def _kernel_eigenspace(E, lam):
    """Eigenspace of a matrix by its kernel: the reference the node-read
    eigenspaces are checked against."""
    F = E.field
    shifted = E - Matrix.identity(F, E.nrows).scale(lam)
    return Subspace.from_vectors(F, E.nrows, shifted.kernel_basis())


def _nce_by_kernels(d, m):
    """The common-eigenspace refinement with every eigenspace taken as a
    kernel of E - lambda I: (confirmed, vector) as no_common_eigenvector
    reports it."""
    F, M = d.field, d.window
    if m == 0:
        spaces = [Subspace.full(F, M)]
    else:
        spaces = [Subspace.from_vectors(
            F, M, [[1 if i == k else 0 for i in range(M)] for k in range(m)])]
    for level in range(m + 1):
        for _, E in treegen._level_projections(d, level):
            spaces = [cut for S in spaces for lam in (0, 1)
                      for cut in [S.intersection(_kernel_eigenspace(E, lam))]
                      if not cut.is_zero()]
            if not spaces:
                return True, None
    return False, dict(enumerate(spaces[0].rows[0]))


def _killer_by_inverse(d):
    """B diag(0, 1, ..., 1) B^-1 for B = [w, unit vectors completing w]."""
    F, M = QQ, d.window
    w = [F.scalar(x) for x in d.w]
    basis = [w]
    for k in range(M):
        unit = [F.one if i == k else F.zero for i in range(M)]
        if Subspace.from_vectors(F, M, basis + [unit]).dim == len(basis) + 1:
            basis.append(unit)
    B = Matrix.from_cols(F, basis)
    return B * Matrix.diagonal(F, [0] + [1] * (M - 1)) * B.inverse()


class TestCertificatesFromNodes:
    def test_node_eigenspaces_match_kernels(self):
        for n, M, seed in [(1, 8, None), (2, 16, 1), (3, 32, 2)]:
            d = treegen.build(n, M, seed=seed)
            for level in range(n + 1):
                for name, E in treegen._level_projections(d, level):
                    zero, one = treegen._eigenspaces(d, level, name)
                    assert zero == _kernel_eigenspace(E, 0)
                    assert one == _kernel_eigenspace(E, 1)

    def test_no_common_eigenvector_matches_kernel_refinement(self):
        for n, M, seed in [(1, 8, None), (2, 16, 3), (3, 32, 4)]:
            d = treegen.build(n, M, seed=seed)
            for m in range(n + 1):
                rep = treegen.no_common_eigenvector(d, m)
                confirmed, vector = _nce_by_kernels(d, m)
                assert rep.confirmed == confirmed and rep.level == m
                if not confirmed:
                    assert rep.vector.entries == {i: x for i, x in vector.items() if x}

    def test_corrupted_member_raises(self, monkeypatch):
        d = treegen.build(2, 16)
        real = treegen._level_projections

        def corrupted(d, level):
            mats = real(d, level)
            name, E = mats[0]
            return [(name, E + Matrix.identity(QQ, d.window))] + mats[1:]

        monkeypatch.setattr(treegen, "_level_projections", corrupted)
        for level in (0, 1, 2):
            with pytest.raises(InvariantViolated):
                treegen.idempotent_family(d, level)

    def test_killer_matches_inverse_construction(self):
        for n, M, seed in [(1, 8, None), (2, 16, 5), (3, 32, 6)]:
            d = treegen.build(n, M, seed=seed)
            tampered = [
                d,
                TreeDecomposition(QQ, n, M, dict(d.nodes), list(d.nodes["0" * n].rows[0])),
                TreeDecomposition(QQ, n, M, dict(d.nodes), [k % 3 - 1 for k in range(M)]),
            ]
            for t in tampered:
                assert treegen.discreteness_witness(t).killer == _killer_by_inverse(t)

    def test_zero_witness_and_split_tampering_refused(self):
        d = treegen.build(2, 16, seed=7)
        zero = TreeDecomposition(QQ, 2, 16, dict(d.nodes), [0] * 16)
        with pytest.raises(VerifyFailed):
            treegen.discreteness_witness(zero)
        nodes = dict(d.nodes)
        nodes["1"] = Subspace.from_vectors(
            QQ, 16, [d.nodes["0"].rows[0]] + list(d.nodes["1"].rows[1:]))
        split = TreeDecomposition(QQ, 2, 16, nodes, d.w)
        with pytest.raises(VerifyFailed):
            treegen.discreteness_witness(split)
        with pytest.raises(VerifyFailed):
            treegen.idempotent_family(split, 1)


def _verify_by_intersections(d):
    """The structural clauses of verify with the direct sum and the window
    condition checked by subspace intersections: (clause, witness), or None
    when every clause holds."""
    F, M = d.field, d.window
    if d.nodes.get("") != Subspace.full(F, M):
        return "root", ""
    for m in range(d.depth + 1):
        span = Subspace.from_vectors(
            F, M, [[1 if i == k else 0 for i in range(M)] for k in range(m)])
        for name in treegen.strings(m):
            V = d.nodes.get(name)
            if V is None:
                return "missing-node", name
            if m >= 1 and not span.intersection(V).is_zero():
                return "a", name
            if V.dim < M // (2 ** m) - m:
                return "c", name
            if m < d.depth:
                left, right = d.nodes.get(name + "0"), d.nodes.get(name + "1")
                if left is None or right is None:
                    return "missing-node", name + "0/1"
                if (left.dim + right.dim != V.dim
                        or not left.intersection(right).is_zero()
                        or left + right != V):
                    return "b", name
    return None


def _integral(row):
    den = math.lcm(*(x.denominator for x in row))
    return [int(x * den) for x in row]


def _span(M, vectors):
    return Subspace.from_vectors(QQ, M, vectors)


def _units(M, ks):
    return [[1 if i == k else 0 for i in range(M)] for k in ks]


def _complement(V, seed_vectors, M):
    """seed_vectors completed by unit vectors to a complement of V."""
    out = list(seed_vectors)
    for unit in _units(M, range(M)):
        if (V + _span(M, out + [unit])).dim == V.dim + len(out) + 1:
            out.append(unit)
    return _span(M, out)


class TestVerifyOracle:
    def _tampered(self, d, rng):
        """Copies of d with one node replaced so that verify fails at
        clause a, b or c, or at a random place."""
        M = d.window
        out = []
        # clause a: a complement of V_1 that contains e_0
        nodes = dict(d.nodes)
        nodes["0"] = _complement(d.nodes["1"], _units(M, [0]), M)
        out.append(nodes)
        # clause b: children that overlap while their dimensions add up
        nodes = dict(d.nodes)
        nodes["1"] = _span(M, [d.nodes["0"].rows[0]] + list(d.nodes["1"].rows[1:]))
        out.append(nodes)
        # clause c: a direct split of the window with a one-dimensional side
        nodes = dict(d.nodes)
        rows0 = d.nodes["0"].rows
        nodes["0"] = _span(M, rows0[-1:])
        nodes["1"] = _span(M, list(rows0[:-1]) + list(d.nodes["1"].rows))
        out.append(nodes)
        # random replacements: combinations of the parent's rows, or of the
        # whole window, of random dimension
        names = [n for n in d.nodes if n]
        for _ in range(6):
            nodes = dict(d.nodes)
            name = rng.choice(names)
            if rng.random() < 0.7:
                pool = list(d.nodes[name[:-1]].rows)
            else:
                pool = _units(M, range(M))
            k = rng.randint(0, len(pool))
            vecs = [[sum(rng.randint(-1, 1) * row[i] for row in pool) for i in range(M)]
                    for _ in range(k)]
            nodes[name] = _span(M, vecs)
            out.append(nodes)
        return [TreeDecomposition(QQ, d.depth, M, nodes, d.w) for nodes in out]

    def test_matches_intersection_clauses(self):
        import random
        rng = random.Random(20)
        seen = set()
        for n, M, seed in [(1, 8, 0), (1, 16, 1), (2, 16, 2), (2, 32, 3), (3, 32, 4)]:
            d = treegen.build(n, M, seed=seed)
            for t in [d] + self._tampered(d, rng):
                # the node bases cleared of denominators and read mod 7,
                # where the clauses may come out differently
                F7 = GF(7)
                nodes7 = {name: Subspace.from_vectors(F7, M, [_integral(r) for r in V.rows])
                          for name, V in t.nodes.items()}
                t7 = TreeDecomposition(F7, n, M, nodes7, t.w)
                for u in (t, t7):
                    rep = treegen.verify(u, check_witness=False)
                    expected = _verify_by_intersections(u)
                    got = None if rep.ok else (rep.clause, rep.witness)
                    assert got == expected
                    seen.add(expected[0] if expected else None)
        assert {None, "a", "b", "c"} <= seen

    def test_verify_runs_no_intersection(self, monkeypatch):
        d = treegen.build(3, 32, seed=1)
        calls = []
        real = Subspace.intersection

        def counting(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(Subspace, "intersection", counting)
        assert treegen.verify(d).ok
        assert calls == []
