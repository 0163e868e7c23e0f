"""End-to-end runs of the command line, in process via ``main``."""

import argparse
import io
import logging
import re
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, TWO_RINGS_TEXT, two_loops
from tfgkit import conc as conc_mod
from tfgkit import reach, tfg
from tfgkit.cli import (
    EXIT_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_UNKNOWN,
    _bench_targets,
    _configure_logging,
    build_parser,
    main,
)
from tfgkit.conc import to_document
from tfgkit.generators import choice_loop, composite
from tfgkit.net_io import (
    MatrixDocument,
    TaggedEquation,
    parse_net,
    write_equations,
    write_matrix,
    write_net,
)
from tfgkit.petri import explore, oracle_concurrency
from tfgkit.reductions import reduce

D1_TEXT = "pl p 1\npl q 0\npl r 0\ntr t p -> q r\n"
A1_TEXT = "pl x 1\npl y 0\npl z 0\ntr t1 x -> y\ntr t2 y -> z\n"
# 2-bounded: p and q agglomerate into a1 = p + q, and p, q are marked together
TWO_TEXT = "pl s 2\npl p 0\npl q 0\ntr t0 s -> p\ntr t p -> q\ntr t2 q -> s\n"
# unbounded: each firing adds a token to b
GROW_TEXT = "pl a 1\npl b 0\ntr t a -> a b\n"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.txt"

PNML_TEXT = """\
<?xml version="1.0"?>
<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">
  <net id="n" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <page id="g">
      <place id="a"><initialMarking><text>1</text></initialMarking></place>
      <place id="b"/>
      <transition id="t"/>
      <arc id="x1" source="a" target="t"/>
      <arc id="x2" source="t" target="b"/>
    </page>
  </net>
</pnml>
"""


@pytest.fixture
def d1(tmp_path):
    path = tmp_path / "d1.net"
    path.write_text(D1_TEXT)
    return path


@pytest.fixture
def a1(tmp_path):
    path = tmp_path / "a1.net"
    path.write_text(A1_TEXT)
    return path


@pytest.fixture
def two(tmp_path):
    path = tmp_path / "two.net"
    path.write_text(TWO_TEXT)
    return path


def refuse(*args, **kwargs):
    raise AssertionError("not expected to be called")


def query(tmp_path, text):
    path = tmp_path / "query.txt"
    path.write_text(text)
    return str(path)


class TestReduce:
    def test_ratio_and_equations_file(self, d1, tmp_path, capsys):
        eq_path = tmp_path / "eq.txt"
        code = main(["reduce", str(d1), "--output", str(eq_path)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "ratio 0.333\n"
        assert eq_path.read_text() == "# R |- r = q\n"

    def test_reduced_net_file(self, d1, tmp_path, capsys):
        out_net = tmp_path / "reduced.net"
        code = main([
            "reduce", str(d1),
            "--output", str(tmp_path / "eq.txt"),
            "--reduced-net", str(out_net),
        ])
        assert code == EXIT_OK
        net2, m2 = parse_net(out_net.read_text())
        assert net2.places == ("p", "q")
        assert m2["p"] == 1
        capsys.readouterr()

    def test_equations_to_stdout_by_default(self, a1, capsys):
        code = main(["reduce", str(a1)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "# A |- a1 = y + z\n" in out
        assert out.endswith("ratio 0.333\n")

    @pytest.mark.parametrize("name, hits", [
        ("d1_duplicate", "constant 0, duplicate 1, chain 0"),
        ("a1_chain", "constant 0, duplicate 0, chain 1"),
    ])
    def test_rule_hits_logged(self, name, hits, caplog, capsys):
        caplog.set_level(logging.INFO, logger="tfgkit")
        assert main(["reduce", str(CORPUS_DIR / f"{name}.net")]) == EXIT_OK
        capsys.readouterr()
        assert caplog.messages == [
            f"reduced 3 places to 2 with 1 equations (hits: {hits})"
        ]


class TestReach:
    def test_reachable(self, a1, tmp_path, capsys):
        code = main(["reach", str(a1), query(tmp_path, "z=1")])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "REACHABLE backend-hit\n"

    def test_unreachable_by_backend(self, tmp_path, capsys):
        path = tmp_path / "backward.net"  # the state equation admits a=1
        path.write_text("pl a 0\npl b 1\npl c 0\ntr t a -> b\ntr u b -> c\n")
        code = main(["reach", str(path), query(tmp_path, "a=1")])
        assert code == EXIT_NEGATIVE
        assert capsys.readouterr().out == "UNREACHABLE backend-exhausted\n"

    def test_unreachable_by_state_equation(self, a1, tmp_path, capsys):
        code = main(["reach", str(a1), query(tmp_path, "y=1 z=1")])
        assert code == EXIT_NEGATIVE
        assert capsys.readouterr().out == "UNREACHABLE state-equation\n"

    def test_unreachable_by_projection(self, d1, tmp_path, capsys):
        code = main(["reach", str(d1), query(tmp_path, "q=1 r=0")])
        assert code == EXIT_NEGATIVE
        assert capsys.readouterr().out == "UNREACHABLE projection-failed\n"

    def test_unknown_when_budget_exhausted(self, tmp_path, capsys):
        net, m0 = choice_loop(3).build()
        path = tmp_path / "choice.net"
        path.write_text(write_net(net, m0))
        code = main([
            "reach", str(path), query(tmp_path, "c_m2=1"), "--max-states", "2",
        ])
        assert code == EXIT_UNKNOWN
        assert capsys.readouterr().out == "UNKNOWN backend-truncated\n"

    def test_budget_spent_by_one_component_is_unknown(self, tmp_path, capsys):
        path = tmp_path / "rings.net"
        path.write_text(TWO_RINGS_TEXT)
        code = main(["reach", str(path), query(tmp_path, "b=1 d=1"), "--max-states", "2"])
        assert code == EXIT_UNKNOWN
        assert capsys.readouterr().out == "UNKNOWN backend-truncated\n"

    def test_timeout_is_a_state_budget(self, tmp_path, capsys):
        net, m0 = choice_loop(3).build()
        path = tmp_path / "choice.net"
        path.write_text(write_net(net, m0))
        code = main([
            "reach", str(path), query(tmp_path, "c_m2=1"), "--timeout", "0.000004",
        ])
        assert code == EXIT_UNKNOWN
        capsys.readouterr()

    def test_external_equations_match_internal(self, a1, tmp_path, capsys):
        eq_path = tmp_path / "eq.txt"
        net2_path = tmp_path / "reduced.net"
        main(["reduce", str(a1), "--output", str(eq_path),
              "--reduced-net", str(net2_path)])
        capsys.readouterr()
        code = main([
            "reach", str(a1), query(tmp_path, "z=1"),
            "--equations", str(eq_path), "--reduced-net", str(net2_path),
        ])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "REACHABLE backend-hit\n"

    def test_external_equations_build_one_graph(self, a1, tmp_path, capsys, monkeypatch):
        """The A2 check and the verdict share one analysis, so one graph."""
        eq_path = tmp_path / "eq.txt"
        net2_path = tmp_path / "reduced.net"
        main(["reduce", str(a1), "--output", str(eq_path), "--reduced-net", str(net2_path)])
        build_graph, built = reach.build_graph, []

        def counted(*args, **kwargs):
            built.append(args)
            return build_graph(*args, **kwargs)

        monkeypatch.setattr(reach, "build_graph", counted)
        code = main([
            "reach", str(a1), query(tmp_path, "z=1"),
            "--equations", str(eq_path), "--reduced-net", str(net2_path),
        ])
        assert code == EXIT_OK
        assert len(built) == 1
        capsys.readouterr()

    def test_external_equations_need_reduced_net(self, a1, tmp_path, capsys):
        eq_path = tmp_path / "eq.txt"
        eq_path.write_text("# A |- a1 = y + z\n")
        code = main([
            "reach", str(a1), query(tmp_path, "z=1"), "--equations", str(eq_path),
        ])
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err


class TestConc:
    def test_matches_oracle_bytes(self, d1, tmp_path, capsys):
        fast = tmp_path / "fast.txt"
        slow = tmp_path / "slow.txt"
        assert main(["conc", str(d1), "--output", str(fast)]) == EXIT_OK
        assert main(["oracle", str(d1), "--conc", "--output", str(slow)]) == EXIT_OK
        assert fast.read_text() == slow.read_text()
        capsys.readouterr()

    def test_summary_on_stderr(self, d1, capsys):
        code = main(["conc", str(d1), "--output", "-"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "# order: p q r" in captured.out
        assert captured.err.startswith("filling 1.000 ")

    def test_partial_from_incomplete_rel2(self, d1, tmp_path, capsys):
        rel2 = tmp_path / "rel2.txt"
        # reduced net keeps p and q; mark q dead, leave the rest unknown
        rel2.write_text("# order: p q\n.\n.0\n")
        code = main(["conc", str(d1), "--rel2", str(rel2), "--output", "-"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "unknown 0" not in captured.err
        # dead root q forces its duplicate r dead as well
        lines = captured.out.splitlines()
        assert lines[0] == "# order: p q r"
        assert lines[2] == "00"
        assert lines[3] == "000"

    # p and q concurrent, q never marked; an unknown cell picks partial mode
    @pytest.mark.parametrize("text", ["# order: p q\n1\n10\n", "# order: p q\n.\n10\n"],
                             ids=["complete", "partial"])
    def test_inconsistent_rel2_is_input_error(self, text, d1, tmp_path, capsys):
        rel2 = tmp_path / "rel2.txt"
        rel2.write_text(text)
        assert main(["conc", str(d1), "--rel2", str(rel2)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cell (q, p) is 1 but q is dead\n"

    @pytest.mark.parametrize("limit", [["--max-states", "1"], ["--timeout", "0.000001"]])
    def test_truncated_reduced_space_is_input_error(self, limit, a1, capsys):
        # a1 reduces to places x and a1 with two reachable markings
        assert main(["conc", str(a1), *limit]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: state space truncated(max-states); raise --max-states\n"

    def test_state_budget_is_shared_by_the_components(self, tmp_path, capsys):
        net, m0 = two_loops()
        path = tmp_path / "loops.net"
        path.write_text(write_net(net, m0))
        k1, k2 = 3, 4  # states of the loops c and d; 12 together
        assert len(explore(net, m0)) == k1 * k2
        assert main(["conc", str(path), "--max-states", str(k1 + k2)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("# order: c_hub ")
        assert main(["conc", str(path), "--max-states", str(k1 + k2 - 1)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: state space truncated(max-states); raise --max-states\n"

    def test_component_left_no_budget_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "rings.net"
        path.write_text(TWO_RINGS_TEXT)  # the first ring's 2 states use up the budget
        assert main(["conc", str(path), "--max-states", "2"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: state space truncated(max-states); raise --max-states\n"

    def test_net_that_is_not_safe_is_input_error(self, two, tmp_path, capsys):
        out = tmp_path / "two.cm"
        assert main(["conc", str(two), "--output", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: state space truncated(max-token); a place exceeds the token cap of 1\n"
        )
        assert not out.exists()


class TestTfgCheck:
    def test_well_formed_report(self, d1, capsys):
        code = main(["tfg-check", str(d1)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for check_id in ("T1", "T2", "T3", "T4", "T5", "T6"):
            assert f"{check_id} ok" in out
        assert "well-formed: 3 nodes, 1 redundancy arcs, 0 agglomeration arcs" in out

    def test_pnml_reduced_net(self, tmp_path, capsys):
        net_path = tmp_path / "net.net"
        net_path.write_text("pl a 1\npl b 0\npl c 0\ntr t a -> b c\n")
        eq_path = tmp_path / "eq.txt"
        eq_path.write_text("# R |- c = b\n")
        net2_path = tmp_path / "reduced.pnml"
        net2_path.write_text(PNML_TEXT)  # a -> t -> b
        code = main([
            "tfg-check", str(net_path),
            "--equations", str(eq_path), "--reduced-net", str(net2_path),
        ])
        assert code == EXIT_OK
        assert "well-formed: 3 nodes, 1 redundancy arcs" in capsys.readouterr().out

    def test_violation_fails(self, d1, tmp_path, capsys):
        eq_path = tmp_path / "eq.txt"
        eq_path.write_text("# R |- q = p\n# A |- a1 = q + r\n")
        net2_path = tmp_path / "reduced.net"
        net2_path.write_text("pl p 1\npl a1 0\n")
        code = main([
            "tfg-check", str(d1),
            "--equations", str(eq_path), "--reduced-net", str(net2_path),
        ])
        assert code == EXIT_NEGATIVE
        out = capsys.readouterr().out
        assert "T3 fail" in out
        assert "well-formed" not in out


class TestIllFormedEquations:
    """The equations of TestTfgCheck.test_violation_fails fail T3."""

    @pytest.mark.parametrize("command", ["reach", "conc"])
    def test_input_error(self, command, d1, tmp_path, capsys):
        eq_path = tmp_path / "eq.txt"
        eq_path.write_text("# R |- q = p\n# A |- a1 = q + r\n")
        net2_path = tmp_path / "reduced.net"
        net2_path.write_text("pl p 1\npl a1 0\n")
        argv = [command, str(d1)]
        if command == "reach":
            argv.append(query(tmp_path, "q=1 r=1"))
        argv += ["--equations", str(eq_path), "--reduced-net", str(net2_path)]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: equations are not well formed: T3: ")


def mutate(equations, kind: str, pick: int) -> tuple[list[TaggedEquation], str]:
    """``equations`` plus one equation that breaks them, and the check that
    must fail.  The new equation reuses the arc between the lhs and one term
    of the ``pick``-th equation with variable terms: it closes a cycle
    through it (T5), gives the term a constant below it (T2), doubles it
    as an arc of the other kind (T3), or repeats the equation's tag and lhs
    over a fresh term (T4)."""
    with_terms = [eq for eq in equations if eq.terms]
    eq = with_terms[pick % len(with_terms)]
    term = eq.terms[pick % len(eq.terms)]
    # the arc runs lhs -> term for an agglomeration, term -> lhs for a redundancy
    src, dst = (eq.lhs, term) if eq.tag == "A" else (term, eq.lhs)
    if kind == "cycle":
        extra, check_id = TaggedEquation("R", src, terms=(dst,)), "T5"
    elif kind == "constant":
        extra, check_id = TaggedEquation("A", term, constant=1), "T2"
    elif kind == "repeated":
        extra, check_id = TaggedEquation(eq.tag, eq.lhs, terms=(f"{eq.lhs}.fresh",)), "T4"
    elif eq.tag == "A":
        extra, check_id = TaggedEquation("R", dst, terms=(src,)), "T3"
    else:
        extra, check_id = TaggedEquation("A", src, terms=(dst,)), "T3"
    return [*equations, extra], check_id


class TestMutatedEquations:
    @settings(max_examples=40)
    @given(
        st.integers(0, 10_000).map(composite),
        st.sampled_from(["cycle", "constant", "doubled", "repeated"]),
        st.integers(0, 1_000),
    )
    def test_rejected_by_check_and_cli(self, net_m0, kind, pick):
        net, m0 = net_m0
        result = reduce(net, m0)
        assume(any(eq.terms for eq in result.equations))
        equations, check_id = mutate(list(result.equations), kind, pick)
        _, found = tfg.check(equations, net.places, result.reduced_net.places)
        assert check_id in {v.check_id for v in found}
        with tempfile.TemporaryDirectory() as scratch:
            tmp = Path(scratch)
            (tmp / "net.net").write_text(write_net(net, m0))
            (tmp / "eq.txt").write_text(write_equations(equations))
            (tmp / "reduced.net").write_text(
                write_net(result.reduced_net, result.reduced_marking)
            )
            external = ["--equations", f"{tmp}/eq.txt", "--reduced-net", f"{tmp}/reduced.net"]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                checked = main(["tfg-check", f"{tmp}/net.net", *external])
            assert checked == EXIT_NEGATIVE  # a failed check, reported
            assert f"{check_id} fail" in out.getvalue()
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                lifted = main(["conc", f"{tmp}/net.net", *external])
            assert lifted == EXIT_INPUT
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: equations are not well formed: ")


class TestOracle:
    def test_summary_line(self, d1, capsys):
        code = main(["oracle", str(d1)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "states 2 status complete safe yes\n"

    def test_query_reachable(self, d1, tmp_path, capsys):
        code = main(["oracle", str(d1), query(tmp_path, "q=1 r=1")])
        assert code == EXIT_OK
        assert "REACHABLE oracle" in capsys.readouterr().out

    def test_query_unreachable(self, d1, tmp_path, capsys):
        code = main(["oracle", str(d1), query(tmp_path, "q=1 r=0")])
        assert code == EXIT_NEGATIVE
        assert "UNREACHABLE oracle" in capsys.readouterr().out

    def test_stored_query_is_reachable_under_a_budget(self, d1, tmp_path, capsys):
        code = main(["oracle", str(d1), query(tmp_path, "p=1"), "--max-states", "1"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == (
            "states 1 status truncated(max-states) safe yes\nREACHABLE oracle\n"
        )

    def test_missing_query_is_unknown_under_a_budget(self, d1, tmp_path, capsys):
        code = main(["oracle", str(d1), query(tmp_path, "q=1 r=1"), "--max-states", "1"])
        assert code == EXIT_UNKNOWN
        assert capsys.readouterr().out == (
            "states 1 status truncated(max-states) safe yes\nUNKNOWN oracle\n"
        )

    def test_truncation_reported(self, tmp_path, capsys):
        path = tmp_path / "unbounded.net"
        path.write_text("pl x 0\ntr t -> x\n")
        code = main(["oracle", str(path)])
        assert code == EXIT_OK
        assert "status truncated(max-token)" in capsys.readouterr().out

    def test_token_cap_hit_is_not_safe(self, tmp_path, capsys):
        path = tmp_path / "grow.net"
        path.write_text(GROW_TEXT)
        assert main(["oracle", str(path), "--conc", "--max-token", "2"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "states 3 status truncated(max-token) safe no\n"
        assert captured.err == (
            "error: state space truncated(max-token); a place exceeds the token cap of 2\n"
        )

    def test_safe_at_a_cap_of_one_needs_no_scan(self, d1, monkeypatch, capsys):
        """At a token cap of 1, a complete or budget-cut search stores no
        count above 1, so the summary reads safety off the status."""
        monkeypatch.setattr("tfgkit.cli.is_safe", refuse)
        assert main(["oracle", str(d1)]) == EXIT_OK
        assert main(["oracle", str(d1), "--max-states", "1"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "states 2 status complete safe yes\n"
            "states 1 status truncated(max-states) safe yes\n"
        )

    def test_bounded_net_matrix(self, two, capsys):
        assert main(["oracle", str(two), "--conc", "--max-token", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "states 6 status complete safe no"
        assert lines[1:] == ["# order: s p q", "1", "11", "111"]

    def test_pnml_input(self, tmp_path, capsys):
        path = tmp_path / "net.pnml"
        path.write_text(PNML_TEXT)
        code = main(["oracle", str(path)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "states 2 status complete safe yes\n"

    def test_pnml_detected_by_content(self, tmp_path, capsys):
        path = tmp_path / "net.txt"
        path.write_text(PNML_TEXT)
        assert main(["oracle", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "states 2 status complete safe yes\n"


class TestBench:
    def fill_corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "d1.net").write_text(D1_TEXT)
        (corpus / "a1.net").write_text(A1_TEXT)
        return corpus

    def test_report_shape(self, tmp_path, capsys):
        corpus = self.fill_corpus(tmp_path)
        code = main(["bench", str(corpus)])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "name\tplaces\treduced\tratio\tstates\treach\tconc\tstatus"
        assert lines[1].startswith("a1\t3\t2\t0.333\t")
        assert lines[2].startswith("d1\t3\t2\t0.333\t")
        assert all("\tok\tok\tcomplete" in line for line in lines[1:3])
        assert sum(1 for line in lines if line.startswith("# ")) == 10

    def test_deterministic_bytes(self, tmp_path, capsys):
        corpus = self.fill_corpus(tmp_path)
        main(["bench", str(corpus)])
        first = capsys.readouterr().out
        main(["bench", str(corpus)])
        assert capsys.readouterr().out == first

    def test_unbounded_instance_skipped(self, tmp_path, capsys):
        corpus = self.fill_corpus(tmp_path)
        (corpus / "unbounded.net").write_text("pl x 0\ntr t -> x\n")
        code = main(["bench", str(corpus)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "unbounded\t1\t-\t-\t-\t-\t-\tskipped(truncated(max-token)" in out

    def test_instance_that_is_not_safe_skipped(self, tmp_path, capsys):
        corpus = self.fill_corpus(tmp_path)
        (corpus / "two.net").write_text(TWO_TEXT)
        assert main(["bench", str(corpus)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "two\t3\t-\t-\t-\t-\t-\tskipped(truncated(max-token))\n" in out

    def test_empty_directory(self, tmp_path, capsys):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        code = main(["bench", str(corpus)])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11  # header plus empty histogram

    def test_output_file(self, tmp_path, capsys):
        corpus = self.fill_corpus(tmp_path)
        report = tmp_path / "report.tsv"
        main(["bench", str(corpus), "--output", str(report)])
        capsys.readouterr()
        assert report.read_text().startswith("name\t")

    @pytest.mark.parametrize("changes, columns, code", [
        (["unknown"], "ok\tok", EXIT_OK),
        (["unknown", "flip"], "FAIL\tFAIL", EXIT_NEGATIVE),
    ])
    def test_disagreement_reads_fail(self, changes, columns, code, tmp_path, capsys,
                                     monkeypatch):
        """An UNKNOWN verdict is skipped; a verdict or matrix that differs
        from the oracle's marks its column FAIL and the run exits 1."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a1.net").write_text(A1_TEXT)
        decide, lift = reach.Analysis.decide, conc_mod.matrix
        pending = iter(changes)

        def patched_decide(analysis, target):
            verdict = decide(analysis, target)
            change = next(pending, None)
            if change == "unknown":
                return reach.ReachVerdict(reach.UNKNOWN, "patched")
            if change == "flip":
                flipped = reach.UNREACHABLE if verdict.answer == reach.REACHABLE else reach.REACHABLE
                return reach.ReachVerdict(flipped, "patched")
            return verdict

        def patched_matrix(graph, rel2):
            out = lift(graph, rel2)
            if "flip" in changes:
                out.set("x", "x", 1 - out.get("x", "x"))
            return out

        monkeypatch.setattr(reach.Analysis, "decide", patched_decide)
        monkeypatch.setattr(conc_mod, "matrix", patched_matrix)
        assert main(["bench", str(corpus)]) == code
        row = capsys.readouterr().out.splitlines()[1]
        assert row.endswith(f"\t{columns}\tcomplete")


class TestOutputFiles:
    """An output file that exists is overwritten in place and cut to the new
    length; files that cannot be cut still take the text."""

    @pytest.mark.parametrize("command, flag", [
        ("reduce", "--output"), ("reduce", "--reduced-net"), ("conc", "--output"),
    ])
    def test_overwrite_leaves_fresh_bytes(self, command, flag, d1, tmp_path, capsys):
        fresh, stale = tmp_path / "fresh.txt", tmp_path / "stale.txt"
        stale.write_bytes(b"x" * 10_000 + b"\n")
        for path in (fresh, stale):
            assert main([command, str(d1), flag, str(path)]) == EXIT_OK
        assert stale.read_bytes() == fresh.read_bytes()
        assert len(fresh.read_bytes()) < 10_000
        capsys.readouterr()

    @pytest.mark.parametrize("command, flag", [
        ("reduce", "--output"), ("reduce", "--reduced-net"), ("conc", "--output"),
    ])
    def test_dev_null(self, command, flag, d1, capsys):
        assert main([command, str(d1), flag, "/dev/null"]) == EXIT_OK
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reduce", "conc"])
    def test_directory_output(self, command, d1, tmp_path, capsys):
        assert main([command, str(d1), "--output", str(tmp_path)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"


class TestInputErrors:
    def test_missing_file(self, capsys):
        code = main(["reduce", "/nonexistent/net.txt"])
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_malformed_net(self, tmp_path, capsys):
        path = tmp_path / "bad.net"
        path.write_text("pl p one\n")
        code = main(["reduce", str(path)])
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_malformed_query(self, d1, tmp_path, capsys):
        code = main(["reach", str(d1), query(tmp_path, "nosuchplace=1")])
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_malformed_oracle_query_under_a_budget(self, tmp_path, capsys):
        """The query is read before the space is explored, so a cut-short
        space does not hide a bad query."""
        ring = str(CORPUS_DIR / "ring_8.net")
        code = main(["oracle", ring, query(tmp_path, "nosuch=1"), "--max-states", "1"])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path}/query.txt: unknown place 'nosuch'\n"

    @pytest.mark.parametrize("flag", ["--output", "--reduced-net"])
    def test_unwritable_output(self, flag, a1, tmp_path, capsys):
        target = tmp_path / "nodir" / "out.txt"
        code = main(["reduce", str(a1), flag, str(target)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: cannot write {target}: No such file or directory\n"
        )

    def test_bench_needs_directory(self, d1, capsys):
        code = main(["bench", str(d1)])
        assert code == EXIT_INPUT
        assert "not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("<text>1</text></initialMarking>", "<text>x1</text></initialMarking>"),
        ("<text>1</text></initialMarking>", "<text>-1</text></initialMarking>"),
        ('<arc id="x1" source="a" target="t"/>',
         '<arc id="x1" source="a" target="t"><inscription><text>two</text></inscription></arc>'),
    ])
    def test_bad_pnml_number(self, old, new, tmp_path, capsys):
        path = tmp_path / "net.pnml"
        path.write_text(PNML_TEXT.replace(old, new))
        assert main(["oracle", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: bad ")

    def test_namespaced_inhibitor_arc(self, tmp_path, capsys):
        path = tmp_path / "net.pnml"
        path.write_text(PNML_TEXT.replace(
            '<arc id="x1" source="a" target="t"/>',
            '<arc id="x1" source="a" target="t"><type value="inhibitor"/></arc>',
        ))
        assert main(["oracle", str(path)]) == EXIT_INPUT
        assert "unsupported arc type 'inhibitor'" in capsys.readouterr().err

    def test_non_ascii_digit_token_count(self, tmp_path, capsys):
        path = tmp_path / "bad.net"
        path.write_text("pl p ²\n")
        assert main(["reduce", str(path)]) == EXIT_INPUT
        assert "bad token count" in capsys.readouterr().err

    def test_rel2_order_mismatch(self, d1, tmp_path, capsys):
        rel2 = tmp_path / "rel2.txt"
        rel2.write_text("# order: p r\n1\n01\n")
        assert main(["conc", str(d1), "--rel2", str(rel2)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rel2 order must match the reduced places\n"

    @pytest.mark.parametrize("command", ["reach", "conc"])
    def test_reduced_net_off_the_projection(self, command, a1, tmp_path, capsys):
        """A reduced net must start at the projection of the net's initial
        marking (A2); this one moves a1's token from x to a1."""
        eq_path = tmp_path / "eq.txt"
        eq_path.write_text("# A |- a1 = y + z\n")
        net2_path = tmp_path / "reduced.net"
        net2_path.write_text("pl x 0\npl a1 1\ntr t1 x -> a1\n")
        argv = [command, str(a1)]
        if command == "reach":
            argv.append(query(tmp_path, "x=1"))
        argv += ["--equations", str(eq_path), "--reduced-net", str(net2_path)]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {net2_path}: ")
        assert "(A2)" in captured.err

    @pytest.mark.parametrize("command", ["reach", "conc", "tfg-check"])
    def test_reduced_net_needs_equations(self, command, a1, tmp_path, capsys):
        argv = [command, str(a1)]
        if command == "reach":
            argv.append(query(tmp_path, "x=1"))
        argv += ["--reduced-net", str(tmp_path / "nodir" / "bad.net")]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --reduced-net needs --equations to tie it to the net\n"

    @pytest.mark.parametrize("row", ["1(0)11", "1(" + "9" * 5000 + ")"], ids=["zero", "huge"])
    def test_rel2_bad_run_count(self, row, a1, tmp_path, capsys):
        rel2 = tmp_path / "rel2.txt"
        rel2.write_text(f"# order: p q\n1\n{row}\n")
        assert main(["conc", str(a1), "--rel2", str(rel2)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {rel2}: line 3: ")

    def test_rel2_repeated_name(self, d1, tmp_path, capsys):
        rel2 = tmp_path / "rel2.txt"
        rel2.write_text("# order: p p\n1\n11\n")
        assert main(["conc", str(d1), "--rel2", str(rel2)]) == EXIT_INPUT
        assert "line 1: name repeated in '# order:' header" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-states", "--max-token"])
    def test_limit_below_one(self, flag, d1, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", str(d1), flag, "0"])
        assert exc.value.code == EXIT_INPUT
        assert f"argument {flag}: must be at least 1" in capsys.readouterr().err

    def test_limit_not_an_integer(self, d1, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", str(d1), "--max-states", "many"])
        assert exc.value.code == EXIT_INPUT
        assert "argument --max-states: invalid int value: 'many'" in capsys.readouterr().err

    @pytest.mark.parametrize("name, level", [
        ("debug", logging.DEBUG), ("chatty", logging.INFO), ("basic_format", logging.INFO),
    ])
    def test_unknown_log_level_falls_back_to_info(self, name, level, monkeypatch):
        configured = {}
        monkeypatch.setenv("TFGKIT_LOG", name)
        monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: configured.update(kwargs))
        _configure_logging()
        assert configured["level"] == level

    def test_non_finite_timeout(self, d1, tmp_path, capsys):
        code = main(["reach", str(d1), query(tmp_path, "q=1"), "--timeout", "nan"])
        assert code == EXIT_INPUT
        assert "--timeout must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reach", "oracle"])
    def test_timeout_past_the_float_range_keeps_max_states(self, command, d1, tmp_path, capsys):
        """A finite timeout whose state count overflows a float leaves
        --max-states as the budget."""
        argv = [command, str(d1), "--max-states", "3"]
        if command == "reach":
            argv.insert(2, query(tmp_path, "q=1"))
        code = main(argv)
        expected = capsys.readouterr()
        assert main(argv + ["--timeout", "1e308"]) == code
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command", ["reach", "conc", "oracle"])
    def test_non_positive_timeout(self, command, value, d1, tmp_path, capsys):
        argv = [command, str(d1), "--timeout", value]
        if command == "reach":
            argv.insert(2, query(tmp_path, "q=1"))
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --timeout must be finite and positive")

    @pytest.mark.parametrize("command, flag", [
        ("reduce", "--max-states"), ("reduce", "--max-token"),
        ("reduce", "--timeout"), ("reduce", "--seed"),
        ("reach", "--seed"), ("reach", "--output"),
        ("conc", "--seed"), ("conc", "--oracle"), ("conc", "--partial"),
        ("conc", "--max-token"),
        ("tfg-check", "--max-states"), ("tfg-check", "--max-token"),
        ("tfg-check", "--timeout"), ("tfg-check", "--seed"), ("tfg-check", "--output"),
        ("oracle", "--seed"), ("oracle", "--format"),
        ("bench", "--format"), ("bench", "--max-token"),
    ])
    def test_flag_the_command_does_not_read(self, command, flag, capsys):
        positionals = ["net", "query"] if command == "reach" else ["net"]
        with pytest.raises(SystemExit) as exc:
            main([command, *positionals, f"{flag}=1"])
        assert exc.value.code == EXIT_INPUT
        assert f"unrecognized arguments: {flag}=1" in capsys.readouterr().err


def test_readme_commands_parse():
    """Every ``tfgkit`` line of the README's shell examples is a valid
    command line."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("tfgkit ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_readme_flags_match_parser():
    """The README's "Flags" list names every option a subcommand defines,
    and no other."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"^Flags, by the subcommands that read them:\n\n(.*?)\n\n",
                       readme, re.M | re.S).group(1)
    (subcommands,) = (action.choices for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    defined = {option for sub in subcommands.values() for action in sub._actions
               for option in action.option_strings if option.startswith("--")} - {"--help"}
    assert set(re.findall(r"--[a-z][a-z0-9-]*", listed)) == defined


def _run(argv: list[str], tmp: Path, files: tuple[str, ...] = ()) -> str:
    """One invocation: the command line, exit code, stdout, stderr and the
    named files of ``tmp``, with the scratch and corpus paths made neutral."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = (
        f"$ tfgkit {' '.join(argv)}\nexit {code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )
    for name in files:
        text += f"--- {name}\n{(tmp / name).read_text()}"
    return text.replace(str(tmp), "$TMP").replace(str(CORPUS_DIR), "corpus")


def golden_text(tmp: Path) -> str:
    """Every subcommand on the first corpus net of each family (the stem
    without its size suffix), then ``bench`` over the whole corpus."""
    families: dict[str, Path] = {}
    for path in sorted(CORPUS_DIR.glob("*.net")):
        families.setdefault(path.stem.rstrip("0123456789_"), path)
    sections = []
    for path in families.values():
        name = str(path)
        net, m0 = parse_net(path.read_text())
        sections.append(_run(
            ["reduce", name, "--output", f"{tmp}/eq.txt", "--reduced-net", f"{tmp}/reduced.net"],
            tmp, ("eq.txt", "reduced.net"),
        ))
        for target in _bench_targets(net, m0, seed=0)[:2]:
            (tmp / "query.txt").write_text(" ".join(f"{p}={n}" for p, n in target.items()) + "\n")
            sections.append(_run(["reach", name, f"{tmp}/query.txt"], tmp, ("query.txt",)))
        sections.append(_run(["conc", name], tmp))
        res = reduce(net, m0)
        space2 = explore(res.reduced_net, res.reduced_marking)
        doc = to_document(oracle_concurrency(space2, res.reduced_net.places))
        known, ones = list(doc.known), list(doc.ones)
        if known:  # mask the first cell of the reduced net's last row
            known[-1] &= ~1
            ones[-1] &= ~1
        masked = MatrixDocument(doc.place_order, tuple(known), tuple(ones))
        (tmp / "rel2.txt").write_text(write_matrix(masked))
        sections.append(_run(["conc", name, "--rel2", f"{tmp}/rel2.txt"], tmp, ("rel2.txt",)))
        sections.append(_run(["tfg-check", name], tmp))
        sections.append(_run(["oracle", name, "--conc"], tmp))
    sections.append(_run(["bench", str(CORPUS_DIR)], tmp))
    return "".join(sections)


class TestPinnedOutput:
    def test_golden(self, tmp_path, monkeypatch):
        """Exit code, stdout, stderr and output files of every subcommand
        match the committed output exactly.

        Regenerate with ``PYTHONPATH=src python tests/test_cli.py``.
        """
        monkeypatch.delenv("TFGKIT_LOG", raising=False)
        assert golden_text(tmp_path) == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(golden_text(Path(scratch)))
