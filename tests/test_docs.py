"""The README's list of scripts, its fixture refresh and its claim list
match the repository."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

from effalg.algfile import load_algebra
from effalg.cli import main
from effalg.enumeration import canonical_key
from effalg.theorems import CLAIM_IDS

ROOT = Path(__file__).resolve().parent.parent
REFRESH = ("effalg enumerate 9 --find-stateless > hit.txt && "
           "tail -n +2 hit.txt > tests/fixtures/stateless9.alg")


def readme_section(title):
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_scripts_section_names_exactly_the_scripts():
    named = set(re.findall(r"scripts/(\w+\.py)", readme_section("Scripts")))
    present = {p.name for p in (ROOT / "scripts").iterdir() if p.is_file()}
    assert named == present


def test_documented_fixture_refresh_gives_the_fixture(tmp_path):
    assert REFRESH in readme_section("Scripts")
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["enumerate", "9", "--find-stateless"]) == 0
    hit = tmp_path / "stateless9.alg"
    hit.write_text(out.getvalue().split("\n", 1)[1])   # tail -n +2
    fixture = load_algebra(ROOT / "tests" / "fixtures" / "stateless9.alg")
    assert canonical_key(load_algebra(hit)) == canonical_key(fixture)


def test_claim_registry_section_names_every_claim():
    section = readme_section("Claim registry")
    missing = [cid for cid in CLAIM_IDS if f"`{cid}`" not in section]
    assert not missing
