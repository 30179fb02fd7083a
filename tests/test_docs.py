"""Documentation invariants: links resolve, bundled packs validate.

The CI docs job runs the same checks standalone
(``python tools/check_links.py`` and ``python -m repro scenarios
--validate``); running them here too makes the tier-1 suite the
single gate.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_links  # noqa: E402  (tools/ is not a package)

DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def test_docs_tree_exists():
    names = {path.name for path in DOCS}
    assert {
        "README.md",
        "architecture.md",
        "cli.md",
        "scenario-cookbook.md",
    } <= names


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_intra_repo_links_resolve(path):
    assert check_links.broken_links([path]) == []


def test_docs_mention_load_bearing_flags():
    readme = (ROOT / "README.md").read_text()
    assert "REPRO_CORPUS_SCALE" in readme
    assert "--machine-file" in readme
    assert "loops/" in readme
    cli = (ROOT / "docs" / "cli.md").read_text()
    for verb in ("evaluate", "suite", "campaign", "scenarios", "bench", "table2"):
        assert f"## `{verb}`" in cli, f"docs/cli.md is missing the {verb} verb"


def test_every_bundled_pack_validates_via_cli():
    from repro.__main__ import main

    assert main(["scenarios", "--validate"]) == 0


def test_check_links_flags_broken_links(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("see [other](missing.md) and [ok](page.md)")
    broken = check_links.broken_links([page])
    assert [(path.name, target) for path, target in broken] == [
        ("page.md", "missing.md")
    ]


def test_check_links_main_runs_clean(capsys):
    assert check_links.main([]) == 0
    assert "0 broken" in capsys.readouterr().out


def test_check_links_skips_fenced_code_and_external(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "```\n[not a link](nowhere.md)\n```\n"
        "[site](https://example.com) [anchor](#section)\n"
    )
    assert check_links.broken_links([page]) == []


def test_check_links_catches_awkward_targets(tmp_path):
    """Caret-in-text and space-in-target links must still be checked."""
    page = tmp_path / "page.md"
    page.write_text("[a^b](missing.md) and [see](miss ing.md)\n")
    targets = {target for _, target in check_links.broken_links([page])}
    assert targets == {"missing.md", "miss ing.md"}


def test_cookbook_snippets_reference_real_packs():
    """The cookbook's referenced bundled packs must actually ship."""
    from repro.scenarios import bundled_pack_paths

    cookbook = (ROOT / "docs" / "scenario-cookbook.md").read_text()
    for name in bundled_pack_paths():
        assert name in cookbook, f"cookbook never mentions bundled pack {name}"


def test_tools_check_links_is_executable_as_script():
    result = runpy.run_path(str(ROOT / "tools" / "check_links.py"))
    assert "broken_links" in result
