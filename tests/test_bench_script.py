"""scripts/bench.py: its fast rows keep their verdicts and digests."""

import importlib.util
import json
from pathlib import Path

import pytest

from effalg import theorems

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lp_verdicts(bench):
    for name, dim in (("boolean5", "dim 4"), ("p40", "dim 3")):
        rows = list(bench.lp_rows(name))
        assert [(r["call"], r["verdict"]) for r in rows] == [
            ("find_state", "state"),
            ("state_space_dimension", dim),
            ("find_subadditive_state", "state")]
        assert rows[1]["digest"] == "-"
        assert rows[0]["digest"] != "-"


def test_certificate_rows(bench):
    # the digest hashes the rows the certificate prints, which the join
    # rows it leaves out cannot move
    rows = list(bench.lp_rows("hc9x4"))
    assert [(r["size"], r["call"], r["verdict"], r["digest"]) for r in rows] == [
        (34, "find_state", "state", "dad9544229b9"),
        (34, "state_space_dimension", "dim 0", "-"),
        (34, "find_subadditive_state", "certificate", "b10451d202e3")]


def test_claim_digests(bench):
    check = theorems.check
    for name, verdict, digest in (("hs40", "20 of 20 hold", "93bae9fb12d7"),
                                  ("hs120", "20 of 20 hold", "93bae9fb12d7"),
                                  ("stateless", "1 of 20 hold", "9837aa1e17d2")):
        *claims, total = bench.claim_rows(name)
        assert [r["call"] for r in claims] == list(theorems.CLAIM_IDS)
        assert (total["call"], total["verdict"], total["digest"]) == (
            "check_all", verdict, digest)
    # the per-claim timer is removed once check_all returns
    assert theorems.check is check


def test_key_digest_and_json_output(bench, monkeypatch, capsys):
    monkeypatch.setattr(bench, "PLAN", (("keys", bench.chain_key_rows, (7,)),))
    assert bench.main() == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert (row["group"], row["instance"], row["size"], row["digest"]) == (
        "keys", "7xchain2", 9, "6fecb5bea1a6")


def test_cold_cli_rows(bench):
    expected = {("check", bench.STATELESS9): ("exit 0", "0c22ec76a234f4f7"),
                ("states", bench.STATELESS9, "--json"):
                    ("exit 4", "801903ea1bcdaeec"),
                ("enumerate", "6", "--json"): ("exit 0", "7f3bc28830f5634c")}
    for argv, (verdict, digest) in expected.items():
        assert argv in bench.PLAN[-1][2]
        (row,) = bench.cli_rows(argv)
        assert (row["instance"], row["verdict"], row["digest"]) == (
            " ".join(argv), verdict, digest)
