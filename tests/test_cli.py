import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from diagalg import cli, textio, treegen
from diagalg.errors import ParseError
from diagalg.fields import EPSeq, GF, Polynomial, QQ
from diagalg.funcalg import SetMap, matrix_algebra, upper_triangular_algebra
from diagalg.idempotents import ExplicitFamily, PartitionFamily, PatternFamily
from diagalg.linalg import Matrix
from diagalg.operators import FiniteVector, Operator, annihilator_applies, krylov_torsion


class TestTextRoundTrips:
    def test_field_spellings(self):
        assert textio.parse_field("Q") == QQ
        assert textio.parse_field("F5") == GF(5)
        assert textio.parse_field("Fp:7") == GF(7)
        with pytest.raises(ParseError):
            textio.parse_field("F6")

    def test_scalar_and_matrix(self):
        M = Matrix(QQ, [[1, "1/2"], [0, -3]])
        assert textio.parse_matrix(QQ, textio.format_matrix(M)) == M
        F = GF(7)
        M2 = Matrix(F, [[1, 2], [3, 4]])
        assert textio.parse_matrix(F, textio.format_matrix(M2)) == M2

    def test_epseq(self):
        s = EPSeq(QQ, [1, "2/3"], [0, 5])
        assert textio.parse_epseq(QQ, textio.format_epseq(s)) == s

    def test_vector(self):
        v = FiniteVector(QQ, {0: 1, 5: "2/3"})
        assert textio.parse_vector(QQ, textio.format_vector(v)) == v
        assert textio.parse_vector(QQ, "vec") == FiniteVector.zero(QQ)

    def test_operator(self):
        T = Operator(QQ, {1: EPSeq.constant(QQ, 1), 0: EPSeq(QQ, [2], [3])},
                     {(0, 4): "1/2"})
        assert textio.parse_operator(textio.format_operator(T)) == T
        F2 = GF(2)
        S = Operator.shift(F2)
        assert textio.parse_operator(textio.format_operator(S)) == S

    def test_family_formats(self):
        fam = PartitionFamily(QQ, [1], [1, 2], {0: 2})
        back = textio.parse_family(textio.format_family(fam))
        assert back.kind == "partition"
        assert (back.pre, back.per) == (fam.pre, fam.per)
        pat = PatternFamily(QQ, 1, [(1, 0, 0, 0), (1, 0, 1, 0)])
        back = textio.parse_family(textio.format_family(pat))
        assert back.kind == "pattern" and back.terms == pat.terms
        exp = ExplicitFamily(GF(3), [Operator.matrix_unit(GF(3), 0, 0),
                                     Operator.identity(GF(3))])
        back = textio.parse_family(textio.format_family(exp))
        assert back.kind == "explicit" and back.ops == exp.ops

    def test_finite_algebra(self):
        A = upper_triangular_algebra(QQ, 2)
        back = textio.parse_finite_algebra(textio.format_finite_algebra(A))
        assert back.table == A.table and back.unit == A.unit

    def test_setmap(self):
        phi = SetMap(3, 2, [0, 1, 1])
        assert textio.parse_setmap(textio.format_setmap(phi)) == phi

    def test_rational_scalar_parsing_matches_fraction(self):
        corpus = ["3", " -7 ", "+3", "-0", "007", "1_000", "\u0663", "1/2", "-3/6",
                  "1.5", "", "-", "--1", "3 4", "\u00b3", "+-3", " 12 / 8 "]
        for text in corpus:
            try:
                expected = Fraction(text)
            except ValueError:
                with pytest.raises(ValueError):
                    QQ.parse_scalar(text)
                with pytest.raises(ParseError):
                    textio.parse_scalar(QQ, text)
                continue
            for value in (QQ.parse_scalar(text), textio.parse_scalar(QQ, text)):
                assert type(value) is Fraction and value == expected

    def test_split_top_matches_bracket_walk(self):
        def walk(text, sep=","):
            parts, depth, cur = [], 0, []
            for ch in text:
                depth += (ch in "[(") - (ch in "])")
                if ch == sep and depth == 0:
                    parts.append("".join(cur))
                    cur = []
                else:
                    cur.append(ch)
            parts.append("".join(cur))
            return [p.strip() for p in parts]

        corpus = ["1,2,3", " 1 , -2/3 ,", "", ",", "7", "1;2", "[1,2],[3,4]",
                  "[[1,2]],[3]", "(1,2),3", "a,[b,(c,d)],e", "1/2 , 3 mod 5"]
        for text in corpus:
            assert textio._split_top(text) == walk(text)
        assert textio._split_top("1;2;[3;4]", ";") == walk("1;2;[3;4]", ";")

    def test_parse_errors_carry_location(self):
        with pytest.raises(ParseError):
            textio.parse_operator("band 1: pre=[] per=[1]")  # missing field
        with pytest.raises(ParseError):
            textio.parse_epseq(QQ, "pre=[1]")
        # a bad line inside an explicit member block names its document line
        doc = ("field Q\nexplicit 2\nband 0: pre=[1] per=[0]\n---\n"
               "band 0: pre=[0] per=[1]\nbogus line")
        with pytest.raises(ParseError) as exc:
            textio.parse_family(doc)
        assert exc.value.line == 6 and str(exc.value).endswith("(line 6)")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCliCommands:
    def test_diag_finite(self, capsys):
        code, rep = run_cli(capsys, "diag-finite", "--field", "Q",
                            "--text", "[[0,1],[1,0]]")
        assert code == 0 and rep["verdict"] == "diagonalizable"
        code, rep = run_cli(capsys, "diag-finite", "--field", "Fp:2",
                            "--text", "[[0,1],[1,0]]")
        assert code == 1 and rep["mu"] == "[1 mod 2,0 mod 2,1 mod 2]"

    def test_diag_ffield_shift(self, capsys):
        code, rep = run_cli(capsys, "diag-ffield",
                            "--text", "field F2\nband 1: pre=[] per=[1]")
        assert code == 1 and "!=" in rep["detail"]

    def test_torsion_exit_codes(self, capsys):
        diag = "field Q\nband 0: pre=[] per=[3]\nvec 0:1"
        code, rep = run_cli(capsys, "torsion", "--text", diag)
        assert code == 0 and rep["annihilator"] == "[-3,1]"
        shift = "field Q\nband 1: pre=[] per=[1]\nvec 0:1"
        code, rep = run_cli(capsys, "torsion", "--text", shift)
        assert code == 1 and rep["certificate"]["top_offset"] == 1
        slow = "field Q\nband 2: pre=[] per=[1,0]\nvec 0:1"
        code, rep = run_cli(capsys, "torsion", "--depth", "2", "--text", slow)
        assert code == 2

    def test_closure_witness_revalidates(self, capsys):
        doc = "field Q\nband 1: pre=[1] per=[0]\nvec 0:1\nvec 1:1"
        code, rep = run_cli(capsys, "closure", "--text", doc)
        assert code == 1 and rep["verdict"] == "not_in_closure"
        # feed the witness back through the torsion checker
        T = textio.parse_operator("field Q\nband 1: pre=[1] per=[0]")
        witness = textio.parse_vector(QQ, rep["witness"])
        ann = Polynomial(QQ, textio.parse_scalar_list(QQ, rep["witness_annihilator"]))
        probe = krylov_torsion(T, witness)
        assert probe.outcome == "torsion" and probe.annihilator == ann
        assert annihilator_applies(T, witness, ann)

    def test_closure_window_witness_past_unresolved_vector(self, capsys):
        # no growth certificate; v_2 never dies under the even shift, and
        # v_1 -> v_0 -> 0 gives the exact witness x^2 in either window order
        ops = "field Q\nband 2: pre=[0,0] per=[1,0]\nband -1: pre=[0,1] per=[0]"
        for window in ("vec 1:1\nvec 2:1", "vec 2:1\nvec 1:1"):
            code, rep = run_cli(capsys, "closure", "--text", f"{ops}\n{window}")
            assert code == 1 and rep["verdict"] == "not_in_closure"
            assert rep["witness"] == "vec 1:1" and rep["witness_annihilator"] == "[0,0,1]"
            assert rep["semi_decided"] is False

    def test_closure_growth_witness_beyond_depth(self, capsys):
        # the torsion part is span(v_0, v_1) with annihilator x^2 - 2, of
        # degree above --depth: depth bounds the window route only, so the
        # exact growth-route verdict still carries its witness
        doc = ("field Q\nband -1: pre=[0,2];per=[0]\nband 1: pre=[1];per=[0]\n"
               "band 2: pre=[0,0];per=[1]\nvec 0:1")
        code, rep = run_cli(capsys, "closure", "--depth", "1", "--text", doc)
        assert code == 1 and rep["verdict"] == "not_in_closure"
        assert rep["witness"] == "vec 0:1" and rep["witness_annihilator"] == "[-2,0,1]"
        assert rep["semi_decided"] is False

    def test_summable_exit_codes(self, capsys):
        code, rep = run_cli(capsys, "summable", "--text",
                            "field Q\npartition pre=[] per=[1,2]")
        assert code == 0 and rep["sums_to_one"] is True
        code, rep = run_cli(
            capsys, "summable", "--text",
            "field Q\npattern i0=1 terms[(r=1*i+0, c=0*i+0), (r=1*i+0, c=1*i+0)]")
        assert code == 1 and rep["witness_index"] == 0

    def test_simdiag(self, capsys):
        doc = "matrix [[1,0],[0,2]]\nmatrix [[3,0],[0,3]]"
        code, rep = run_cli(capsys, "simdiag", "--field", "Q", "--text", doc)
        assert code == 0
        doc = "matrix [[0,1],[0,0]]\nmatrix [[1,0],[0,1]]"
        code, rep = run_cli(capsys, "simdiag", "--field", "Q", "--text", doc)
        assert code == 1 and rep["witness"]["mu"] == "[0,0,1]"

    def test_tree_pipeline(self, capsys, tmp_path):
        code, rep = run_cli(capsys, "tree", "build", "--depth", "1",
                            "--truncate", "8")
        assert code == 0
        doc = tmp_path / "tree.txt"
        doc.write_text(rep["document"])
        code, rep = run_cli(capsys, "tree", "verify", "--input", str(doc))
        assert code == 0 and rep["verdict"] == "pass"
        code, rep = run_cli(capsys, "tree", "family", "--input", str(doc),
                            "--level", "1")
        assert code == 0 and rep["labels"] == ["0", "1"]
        # tampered document fails verification with the clause named
        d = treegen.build(1, 8)
        from diagalg.treegen import TreeDecomposition
        nodes = dict(d.nodes)
        nodes["0"] = nodes["1"]
        broken = textio.format_tree(TreeDecomposition(QQ, 1, 8, nodes, d.w))
        doc.write_text(broken)
        code, rep = run_cli(capsys, "tree", "verify", "--input", str(doc))
        assert code == 1 and rep["clause"] == "b"

    def test_spec0(self, capsys):
        code, rep = run_cli(capsys, "spec0", "--field", "F3", "--text", "3")
        assert code == 0 and len(rep["ideals"]) == 3

    def test_spec0_many_points(self, capsys):
        code, rep = run_cli(capsys, "spec0", "--field", "Q", "--text", "400")
        assert code == 0 and len(rep["ideals"]) == 400
        assert all(m["basis_size"] == 399 for m in rep["ideals"])

    def test_duality_check(self, capsys):
        code, rep = run_cli(capsys, "duality-check", "--field", "F2",
                            "--text", "map 2->1 [0,0]")
        assert code == 0 and rep["verdict"] == "round_trips"

    def test_crt_exit_codes(self, capsys):
        code, rep = run_cli(capsys, "crt", "--field", "Q", "--text", "[0,-1,0,1]")
        assert code == 0 and len(rep["idempotents"]) == 3
        code, rep = run_cli(capsys, "crt", "--field", "Q", "--text", "[0,0,1]")
        assert code == 1

    def test_radical_and_classical(self, capsys):
        A = matrix_algebra(QQ, 2)
        code, rep = run_cli(capsys, "radical", "--text",
                            textio.format_finite_algebra(A))
        assert code == 0 and rep["verdict"] == "semisimple"
        code, rep = run_cli(capsys, "classical", "--field", "Q",
                            "--text", "[[0,1],[0,0]]")
        assert code == 1 and rep["consistent"] is True

    def test_input_error_exit_code(self, capsys):
        code, rep = run_cli(capsys, "crt", "--field", "Q", "--text", "not a poly")
        assert code == 3 and rep["verdict"] == "input_error"
        code, rep = run_cli(capsys, "diag-ffield", "--text",
                            "field Q\nband 0: pre=[] per=[1]")
        assert code == 3  # wrong field surfaces as an input error

    def test_spec0_bad_point_count_is_input_error(self, capsys):
        for text in ("", "   ", "three"):
            code, rep = run_cli(capsys, "spec0", "--field", "Q", "--text", text)
            assert code == 3 and rep["verdict"] == "input_error"

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        def broken(algebra):
            raise KeyError("lost")
        monkeypatch.setattr(cli, "spec0", broken)
        code, rep = run_cli(capsys, "spec0", "--field", "F3", "--text", "3")
        assert code == 4 and rep["verdict"] == "internal_error"
        assert rep["error"].startswith("KeyError")

    def test_usage_errors_exit_as_input_errors(self, capsys):
        for argv in (["nosuch"], [], ["crt", "--text", "[1,1]"],
                     ["torsion", "--depth", "deep"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 3
        with pytest.raises(SystemExit) as exc:
            cli.main(["-h"])
        assert exc.value.code == 0

    def test_primes_too_large_to_scan(self, capsys):
        code, rep = run_cli(capsys, "diag-finite", "--field", "Fp:1000033",
                            "--text", "[[1,0],[0,2]]")
        assert code == 0
        assert rep["eigenvalues"] == ["1 mod 1000033", "2 mod 1000033"]
        code, rep = run_cli(capsys, "crt", "--field", "Fp:1000000000000000003",
                            "--text", "[2,-3,1]")
        assert code == 0 and rep["roots"] == ["1 mod 1000000000000000003",
                                              "2 mod 1000000000000000003"]

    def test_large_prime_eigenvalues_over_q(self, capsys):
        # exit 3 (a capacity error) while rational roots came from divisor
        # enumeration, which could not factor these
        for text, eigenvalues in (("[[1000000000039,0],[0,1]]", ["1", "1000000000039"]),
                                  ("[[1/1000000000039]]", ["1/1000000000039"]),
                                  ("[[10000000000000061]]", ["10000000000000061"])):
            code, rep = run_cli(capsys, "diag-finite", "--field", "Q", "--text", text)
            assert code == 0 and rep["eigenvalues"] == eigenvalues
        roots = [Fraction(-1, 1000000000039), Fraction(1000000000039), Fraction(10000000000000061)]
        f = Polynomial.from_roots(QQ, roots)
        code, rep = run_cli(capsys, "crt", "--field", "Q", "--text", textio.format_polynomial(f))
        assert code == 0 and rep["verdict"] == "splits"
        assert rep["roots"] == ["-1/1000000000039", "1000000000039", "10000000000000061"]
        assert len(rep["idempotents"]) == 3

    def test_stdin_input(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("[[1,0],[0,1]]")
        code, rep = run_cli(capsys, "diag-finite", "--field", "Q",
                            "--input", str(f))
        assert code == 0


class TestSuiteReproducibility:
    def test_suite_bit_reproducible_without_timing(self, capsys):
        code1 = cli.main(["suite", "--seed", "7", "--no-timing"])
        out1 = capsys.readouterr().out
        code2 = cli.main(["suite", "--seed", "7", "--no-timing"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2


class TestCertifyOnce:
    def test_summable_validates_once(self, capsys, monkeypatch):
        from diagalg import idempotents
        calls = []
        real = idempotents.validate

        def counting(family, *args, **kwargs):
            calls.append(family)
            return real(family, *args, **kwargs)

        monkeypatch.setattr(idempotents, "validate", counting)
        docs = ["field Q\npartition pre=[] per=[1,2]",
                "field Q\nexplicit 2\nband 0: pre=[1] per=[0]\n---\n"
                "band 0: pre=[0] per=[1]",
                "field Q\nexplicit 1\ncorr (0,0)=1"]
        for doc, to_one in zip(docs, (True, True, False)):
            calls.clear()
            code, rep = run_cli(capsys, "summable", "--text", doc)
            assert code == 0 and rep["sums_to_one"] is to_one
            assert len(calls) == 1


class TestParserReuse:
    # interleaved commands, with usage errors (exit 3) before valid calls
    # and a defaulted --depth after an explicit one
    CALLS = [
        ["diag-finite", "--field", "Q", "--text", "[[0,1],[1,0]]"],
        ["torsion", "--depth", "2", "--text", "field Q\nband 1: pre=[1,1,1] per=[0]\nvec 0:1"],
        ["diag-finite", "--text", "[[1]]"],
        ["torsion", "--text", "field Q\nband 1: pre=[1,1,1] per=[0]\nvec 0:1"],
        ["tree", "build", "--depth", "1", "--truncate", "8"],
        ["no-such-command"],
        ["diag-finite", "--field", "Fp:2", "--text", "[[0,1],[1,0]]"],
        ["closure", "--text", "field Q\nband 1: pre=[1] per=[0]\nvec 0:1\nvec 1:1"],
        ["tree", "verify", "--depth", "x"],
        ["spec0", "--field", "F3", "--text", "3"],
        ["diag-ffield", "--text", "field F2\nband 1: pre=[] per=[1]"],
    ]

    def test_in_process_calls_match_fresh_processes(self, capsys):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        codes = []
        for argv in self.CALLS:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr().out
            fresh = subprocess.run([sys.executable, "-m", "diagalg.cli", *argv],
                                   capture_output=True, text=True, env=env, timeout=120)
            assert (code, out) == (fresh.returncode, fresh.stdout), argv
            codes.append(code)
        assert codes == [0, 2, 3, 0, 0, 3, 1, 1, 3, 0, 1]
