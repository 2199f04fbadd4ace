"""Command-line contract: exit codes, formats, round-trips, determinism."""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import make_b2
from effalg import enumeration, structure
from effalg.algfile import AlgebraFileError, dump_algebra, loads_algebra
from effalg.cli import main
from effalg.construct import boolean_algebra, chain, horizontal_sum, product
from effalg.enumeration import _rows_to_jsonable, canonical_key

FIXTURES = Path(__file__).parent / "fixtures"

E5_TEXT = """\
version 1
elements 0 a a' b 1
zero 0
one 1
sum a a' = 1
sum b b = 1
"""


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture
def e5_file(tmp_path):
    path = tmp_path / "e5.alg"
    path.write_text(E5_TEXT)
    return str(path)


class TestAlgebraFile:
    def test_load_explicit_table(self):
        E = loads_algebra(E5_TEXT)
        assert E.size == 5 and E.labels == ("0", "a", "a'", "b", "1")
        assert E.sum[1][2] == 4 and E.sum[3][3] == 4

    def test_one_sided_entry_completed(self):
        E = loads_algebra(E5_TEXT)
        assert E.sum[2][1] == 4  # only "sum a a' = 1" was written

    def test_construct_line(self):
        E = loads_algebra("version 1\nconstruct chain(3)\n")
        assert E.size == 4

    def test_parse_errors(self):
        bad = [
            "",  # no version
            "version 2\nelements 0 1\nzero 0\none 1\n",
            "version 1\nelements 0 0\nzero 0\none 0\n",
            "version 1\nelements 0 1\nzero 0\n",  # one missing
            "version 1\nelements 0 1\nzero 0\none 1\nsum 0 1 2\n",
            "version 1\nconstruct chain(3)\nelements 0 1\nzero 0\none 1\n",
            "version 1\nelements 0 a 1\nzero 0\none 1\nsum a a = 1\nsum a a = 0\n",
        ]
        for text in bad:
            with pytest.raises(AlgebraFileError):
                loads_algebra(text)

    def test_roundtrip_constructions(self):
        cases = [
            boolean_algebra(3),
            chain(4),
            horizontal_sum([boolean_algebra(2), chain(2)]),
            product([chain(2), boolean_algebra(1)]),
        ]
        for E in cases:
            back = loads_algebra(dump_algebra(E))
            assert canonical_key(back) == canonical_key(E)

    def test_comments_and_blank_lines(self):
        E = loads_algebra("# header\n\nversion 1  # trailing\nconstruct chain(2)\n")
        assert E.size == 3


class TestCheckCommand:
    def test_valid(self, e5_file):
        code, out = run_cli("check", e5_file)
        assert code == 0 and "valid" in out

    def test_axiom_violation_exits_2(self, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text("version 1\nelements 0 b 1\nzero 0\none 1\n"
                        "sum b b = 1\nsum 1 b = b\n")
        code, out = run_cli("check", str(path))
        assert code == 2 and "Eiv" in out

    def test_parse_error_exits_3(self, tmp_path):
        path = tmp_path / "junk.alg"
        path.write_text("widgets everywhere\n")
        code, out = run_cli("check", str(path))
        assert code == 3

    @pytest.mark.parametrize("content", [
        b"version 1\nconstruct boolean(25)\n",
        b"version 1\nconstruct interval(chain(3), 2a, a)\n",
        b"version 1\nconstruct interval(chain(2), a, a)\n",
        b"version 1\nconstruct chain(\xc2\xb2)\n",
        b"version 1\n\xff\n",
        b"version 1\nconstruct " + b"product(" * 3000 + b"chain(1)" + b")" * 3000,
        b"version 1\nconstruct chain(" + b"9" * 5000 + b")\n",
        b"version " + b"1" * 5000 + b"\nconstruct chain(3)\n",
    ], ids=["size-overflow", "not-below", "empty-interval", "superscript-digit",
            "not-utf8", "nested-too-deep", "huge-argument", "huge-version"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_bad_input_exits_3(self, tmp_path, content, as_json):
        path = tmp_path / "bad.alg"
        path.write_bytes(content)
        code, out = run_cli("check", str(path), *(["--json"] if as_json else []))
        assert code == 3
        if as_json:
            assert set(json.loads(out)) == {"command", "error"}
        else:
            assert len(out.splitlines()) == 1 and out.startswith("parse error: ")

    def test_leading_zeros_do_not_count_as_digits(self, tmp_path):
        path = tmp_path / "padded.alg"
        path.write_text("version 0000000001\nconstruct chain(0000000003)\n")
        code, out = run_cli("check", str(path), "--json")
        assert code == 0 and json.loads(out)["valid"] is True

    def test_json_mode(self, e5_file):
        code, out = run_cli("check", e5_file, "--json")
        data = json.loads(out)
        assert data["valid"] is True and data["violations"] == []


class TestFileCommands:
    """The parse-error and invalid-algebra replies every file command shares."""

    @pytest.mark.parametrize("command", ["check", "analyze", "states", "theorems"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_parse_error_exits_3(self, tmp_path, command, as_json):
        path = tmp_path / "junk.alg"
        path.write_text("widgets everywhere\n")
        code, out = run_cli(command, str(path), *(["--json"] if as_json else []))
        assert code == 3
        if as_json:
            data = json.loads(out)
            assert set(data) == {"command", "error"} and data["command"] == command
        else:
            assert len(out.splitlines()) == 1 and out.startswith("parse error: ")

    @pytest.mark.parametrize("command", ["analyze", "states"])
    def test_invalid_algebra_lists_violations(self, tmp_path, command):
        path = tmp_path / "bad.alg"
        path.write_text("version 1\nelements 0 x 1\nzero 0\none 1\n")
        message = "element 1 has orthosupplements [] (need exactly one)"
        code, out = run_cli(command, str(path), "--json")
        assert code == 2
        assert json.loads(out) == {"command": command, "valid": False,
                                   "violations": [message]}
        code, out = run_cli(command, str(path))
        assert code == 2
        assert out == f"invalid algebra:\n  [Eiii] {message}\n"


class TestAnalyzeCommand:
    def test_e5_report(self, e5_file):
        code, out = run_cli("analyze", e5_file, "--json")
        data = json.loads(out)
        assert code == 0
        assert data["flags"]["modular"] is True
        assert data["flags"]["orthomodular"] is False
        assert len(data["blocks"]) == 2
        assert data["sharp"] == ["0", "a", "a'", "1"]

    def test_dot_output(self, tmp_path):
        path = tmp_path / "c4.alg"
        path.write_text("version 1\nconstruct chain(3)\n")
        code, out = run_cli("analyze", str(path), "--dot", "-")
        assert code == 0
        dot = out[out.index("digraph"):]
        assert dot.count("->") == 3  # the 4-chain cover graph is a path
        assert "peripheries=2" in dot  # sharp endpoints marked

    @pytest.mark.parametrize("dot", ["dir", "missing"])
    def test_unwritable_dot_path_exits_3(self, tmp_path, dot):
        target = str(tmp_path if dot == "dir" else tmp_path / "no" / "x.dot")
        alg = str(FIXTURES / "stateless9.alg")
        code, out = run_cli("analyze", alg, "--dot", target)
        assert code == 3
        assert out.startswith("error: ") and out.count("\n") == 1
        code, out = run_cli("analyze", alg, "--dot", target, "--json")
        assert code == 3
        data = json.loads(out)
        assert data["command"] == "analyze" and target in data["error"]

    def test_dot_file_written(self, tmp_path):
        path = tmp_path / "hasse.dot"
        code, out = run_cli("analyze", str(FIXTURES / "stateless9.alg"),
                            "--dot", str(path))
        assert code == 0 and "digraph" not in out
        assert path.read_text().startswith("digraph hasse {")

    def test_json_dot_to_stdout_is_one_document(self, tmp_path):
        alg = str(FIXTURES / "stateless9.alg")
        path = tmp_path / "hasse.dot"
        code, written = run_cli("analyze", alg, "--json", "--dot", str(path))
        assert code == 0
        code, out = run_cli("analyze", alg, "--json", "--dot", "-")
        assert code == 0
        data = json.loads(out)
        assert data.pop("dot") == path.read_text()
        # the rest is the document --dot PATH prints
        assert data == json.loads(written)

    def test_structure_derived_once(self, tmp_path):
        # analyze reads the blocks and the compatibility graph for the MV
        # flag, the blocks listing and both centers
        path = tmp_path / "hs120.alg"
        path.write_text("version 1\nconstruct product(horizontal_sum(chain(2), "
                        "chain(2), chain(2)), chain(3), chain(5))\n")
        watched = {structure.compatibility_adjacency.__wrapped__.__code__,
                   structure._max_cliques.__code__}
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            code, out = run_cli("analyze", str(path), "--json")
        finally:
            sys.setprofile(None)
        assert code == 0 and json.loads(out)["size"] == 120
        assert sorted(calls) == ["_max_cliques", "compatibility_adjacency"]

    def test_invalid_algebra_exits_2(self, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text("version 1\nelements 0 x 1\nzero 0\none 1\n")
        code, _ = run_cli("analyze", str(path))
        assert code == 2  # x has no orthosupplement


class TestStatesCommand:
    def test_subadditive_halves(self, e5_file):
        code, out = run_cli("states", e5_file, "--subadditive", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["state"] == {"0": "0/1", "a": "1/2", "a'": "1/2",
                                 "b": "1/2", "1": "1/1"}

    def test_stateless_fixture_exits_4_with_certificate(self):
        code, out = run_cli("states", str(FIXTURES / "stateless9.alg"), "--json")
        data = json.loads(out)
        assert code == 4
        assert data["feasible"] is False
        assert data["certificate"]  # nonempty multiplier list

    def test_exstate_on_boolean_exits_5(self, tmp_path):
        path = tmp_path / "b2.alg"
        path.write_text("version 1\nconstruct boolean(2)\n")
        code, out = run_cli("states", str(path), "--via-exstate")
        assert code == 5 and "S(E)" in out

    def test_subadditive_on_non_lattice_exits_5(self, tmp_path):
        path = tmp_path / "hex.alg"
        path.write_text(
            "version 1\nelements 0 a b c d 1\nzero 0\none 1\n"
            "sum a a = d\nsum a b = c\nsum a d = 1\n"
            "sum b b = d\nsum b c = 1\n")
        code, out = run_cli("states", str(path), "--subadditive")
        assert code == 5
        code, out = run_cli("states", str(path), "--json")
        assert code == 0 and json.loads(out)["feasible"] is True

    def test_exstate_trace_json(self, e5_file):
        code, out = run_cli("states", e5_file, "--via-exstate", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["trace"]["branch"] == "dichotomy"
        assert data["trace"]["atom"] == "b"
        assert data["trace"]["central"] == "1"


class TestEnumerateCommand:
    def test_count_three_at_four(self):
        code, out = run_cli("enumerate", "4", "--json")
        assert code == 0 and json.loads(out)["count"] == 3

    def test_count_one_at_three(self):
        code, out = run_cli("enumerate", "3", "--json")
        assert json.loads(out)["count"] == 1

    def test_find_stateless_none_at_eight(self):
        code, out = run_cli("enumerate", "8", "--find-stateless")
        assert code == 0 and "NoneFound" in out

    def test_budget_exhaustion_exits_6_and_resumes(self, tmp_path):
        cp = tmp_path / "cp.json"
        code, out = run_cli("enumerate", "7", "--budget-nodes", "40",
                            "--checkpoint", str(cp))
        assert code == 6 and cp.exists()
        code, out = run_cli("enumerate", "7", "--checkpoint", str(cp), "--json")
        assert code == 0
        # the resumed run reports the count of the whole enumeration
        assert json.loads(out)["count"] == 14

    def test_show_prints_files(self):
        code, out = run_cli("enumerate", "3", "--show")
        assert "elements" in out and "sum" in out

    def test_filters(self):
        code, out = run_cli("enumerate", "6", "--lattice-only", "--json")
        assert json.loads(out)["count"] == 9  # the hexagon family drops out
        code, out = run_cli("enumerate", "6", "--modular-only", "--json")
        assert json.loads(out)["count"] == 5


class TestCheckpoints:
    """A checkpoint that does not fit the command exits 3 with one line."""

    def cut(self, tmp_path, *argv):
        cp = tmp_path / "cp.json"
        code, _ = run_cli(*argv, "--checkpoint", str(cp))
        assert code == 6 and cp.exists()
        return str(cp)

    def assert_rejected(self, *argv):
        code, out = run_cli(*argv)
        assert code == 3
        assert out.startswith("checkpoint error:") and out.count("\n") == 1

    def test_enumeration_checkpoint_is_no_stateless_one(self, tmp_path):
        cp = self.cut(tmp_path, "enumerate", "7", "--budget-nodes", "40")
        self.assert_rejected("enumerate", "6", "--find-stateless",
                             "--checkpoint", cp)

    def test_stateless_checkpoint_is_no_enumeration_one(self, tmp_path):
        cp = self.cut(tmp_path, "enumerate", "8", "--find-stateless",
                      "--budget-nodes", "1500")
        self.assert_rejected("enumerate", "8", "--checkpoint", cp)

    def test_checkpoint_of_another_size(self, tmp_path):
        cp = self.cut(tmp_path, "enumerate", "7", "--budget-nodes", "40")
        self.assert_rejected("enumerate", "6", "--checkpoint", cp)

    def test_checkpoint_under_other_filters(self, tmp_path):
        cp = self.cut(tmp_path, "enumerate", "8", "--lattice-only",
                      "--budget-nodes", "1000")
        self.assert_rejected("enumerate", "8", "--checkpoint", cp)

    def test_not_json(self, tmp_path):
        cp = tmp_path / "cp.json"
        cp.write_text("garbage")
        self.assert_rejected("enumerate", "5", "--checkpoint", str(cp))

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_version(self, tmp_path, version):
        # chunk ids name cells by index, and the cell order changed in 3;
        # 4 counts the chunks done instead
        cp = tmp_path / "cp.json"
        cp.write_text(json.dumps({"version": version, "size": 7, "filters": [],
                                  "completed": [], "yielded": 0}))
        self.assert_rejected("enumerate", "7", "--checkpoint", str(cp))

    def rewrite(self, cp, **fields):
        Path(cp).write_text(json.dumps(dict(json.loads(Path(cp).read_text()),
                                            **fields)))

    @pytest.mark.parametrize("stateless", [False, True])
    @pytest.mark.parametrize("done", ["over", -1, "1", 1.0, None])
    def test_done_must_count_chunks(self, tmp_path, stateless, done):
        mode = ("--find-stateless",) if stateless else ()
        cp = self.cut(tmp_path, "enumerate", "8", *mode, "--budget-nodes", "1500")
        if done == "over":
            done = len(enumeration._chunks(8)) + 1
        self.rewrite(cp, done=done)
        self.assert_rejected("enumerate", "8", *mode, "--checkpoint", cp)

    @pytest.mark.parametrize("found", [
        _rows_to_jsonable(make_b2().sum),   # valid, but of size 4
        [[-1] * 8] * 8,   # size 8, but 0 + 1 is undefined
        5, [[0, 1], [1]], [["x"] * 8] * 8])
    def test_found_must_be_a_valid_table_of_the_size(self, tmp_path, found):
        cp = self.cut(tmp_path, "enumerate", "8", "--find-stateless",
                      "--budget-nodes", "1500")
        self.rewrite(cp, found=found)
        self.assert_rejected("enumerate", "8", "--find-stateless",
                             "--checkpoint", cp)

    @pytest.mark.parametrize("mode", [(), ("--find-stateless",)])
    def test_unwritable_checkpoint(self, tmp_path, mode):
        cp = str(tmp_path / "missing" / "cp.json")
        argv = ("enumerate", "5", *mode, "--budget-nodes", "1", "--checkpoint", cp)
        self.assert_rejected(*argv)
        code, out = run_cli(*argv, "--json")
        assert code == 3
        data = json.loads(out)
        assert data["command"] == "enumerate" and cp in data["error"]

    def test_json_error_line(self, tmp_path):
        cp = tmp_path / "cp.json"
        cp.write_text("[]")
        code, out = run_cli("enumerate", "5", "--checkpoint", str(cp), "--json")
        assert code == 3 and "checkpoint" in json.loads(out)["error"]

    # each cut comes after some classes were yielded (13 and 15)
    @pytest.mark.parametrize("filters,nodes,full", [
        ((), "1000", 40), (("--lattice-only",), "1500", 25)])
    def test_resumed_count_is_the_whole_count(self, tmp_path, filters, nodes,
                                              full):
        cp = self.cut(tmp_path, "enumerate", "8", *filters,
                      "--budget-nodes", nodes)
        code, out = run_cli("enumerate", "8", *filters, "--checkpoint", cp,
                            "--json")
        assert code == 0 and json.loads(out)["count"] == full

    def test_resumed_stateless_search_counts_every_class(self, tmp_path):
        cp = self.cut(tmp_path, "enumerate", "8", "--find-stateless",
                      "--budget-nodes", "1500")
        code, out = run_cli("enumerate", "8", "--find-stateless",
                            "--checkpoint", cp, "--json")
        assert code == 0
        # 1 + 1 + 3 + 4 + 10 + 14 + 40 classes of sizes 2 to 8
        assert json.loads(out)["checked"] == 73


class TestTheoremsCommand:
    def test_e5_all_rows_pass(self, e5_file):
        code, out = run_cli("theorems", e5_file, "--json")
        data = json.loads(out)
        assert code == 0
        assert len(data["claims"]) == 20
        assert all(c["verdict"] in ("holds", "hypotheses unmet")
                   for c in data["claims"])
        assert len(data["scale_limited"]) == 3

    def test_sweep_five_passes(self):
        code, out = run_cli("theorems", "--sweep", "5", "--json")
        data = json.loads(out)
        assert code == 0
        assert all(row["passed"] for row in data["claims"])

    def test_sweep_enumerates_once(self, monkeypatch):
        from effalg import enumeration

        sizes = []
        real = enumeration.enumerate_algebras

        def counting(config):
            sizes.append(config.size)
            return real(config)

        monkeypatch.setattr(enumeration, "enumerate_algebras", counting)
        code, _ = run_cli("theorems", "--sweep", "6")
        assert code == 0 and sizes == [6]

    def test_sweep_stops_at_the_deadline_after_one_instance(self, monkeypatch):
        import time

        import effalg.theorems as th

        # a clock that moves only while claims are checked, 10 s a check
        clock = [0.0]
        checked = []
        real = th.check

        def slow(E, claim_id):
            checked.append(E)
            clock[0] += 10
            return real(E, claim_id)

        monkeypatch.setattr(time, "monotonic", lambda: clock[0])
        monkeypatch.setattr(th, "check", slow)
        code, out = run_cli("theorems", "--sweep", "7", "--budget-seconds", "5")
        assert code == 6 and "budget exhausted" in out
        assert len(checked) == len(th.CLAIM_IDS)
        assert len({E.sum for E in checked}) == 1

    def test_corrupted_file_exits_2(self, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text("version 1\nelements 0 x 1\nzero 0\none 1\n")
        code, _ = run_cli("theorems", str(path))
        assert code == 2

    def test_claim_failure_exits_7(self, e5_file, monkeypatch):
        import effalg.theorems as th

        fake = th._Claim("always fails", (), lambda E: (False, ("boom",)))
        monkeypatch.setitem(th._REGISTRY, "test.fake", fake)
        monkeypatch.setattr(th, "CLAIM_IDS", tuple(th._REGISTRY))
        import effalg.cli as cli
        monkeypatch.setattr(cli, "CLAIM_IDS", tuple(th._REGISTRY))
        code, out = run_cli("theorems", e5_file)
        assert code == 7 and "FAILS" in out


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("enumerate", "5", "--budget-nodes", "-5"),
        ("enumerate", "5", "--budget-nodes", "0"),
        ("enumerate", "5", "--budget-seconds", "0"),
        ("enumerate", "5", "--jobs", "0"),
        ("enumerate", "5", "--jobs", "-2"),
        ("enumerate", "1"),
        ("theorems", "--sweep", "1"),
        ("theorems", "--sweep", "5", "--budget-nodes", "0"),
        ("theorems",),
    ])
    def test_bad_arguments_exit_2_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_bad_budget_variable_exits_2_with_usage(self, monkeypatch, capsys):
        monkeypatch.setenv("EFFALG_NODE_BUDGET", "abc")
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "5"])
        assert info.value.code == 2
        assert "EFFALG_NODE_BUDGET" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("enumerate", "7"), ("theorems", "--sweep", "7")])
    def test_budget_variable_bounds_the_command(self, argv, monkeypatch):
        monkeypatch.setenv("EFFALG_NODE_BUDGET", "40")
        code, out = run_cli(*argv)
        assert code == 6 and "budget exhausted" in out


class TestDeterminism:
    def test_json_outputs_are_byte_identical(self, e5_file):
        for argv in (
            ("analyze", e5_file, "--json"),
            ("states", e5_file, "--subadditive", "--json"),
            ("theorems", e5_file, "--json"),
            ("enumerate", "5", "--json"),
        ):
            first = run_cli(*argv)
            second = run_cli(*argv)
            assert first == second
