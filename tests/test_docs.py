"""Docs tree sanity: required pages exist, are linked from the README,
and contain no broken relative links (the same check CI's docs job runs
via scripts/check_links.py)."""

import importlib
import pathlib
import re
import subprocess
import sys

import pytest

from repro import FuseWorld

REPO = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = ["README.md", "docs/ARCHITECTURE.md", "docs/SCENARIOS.md", "docs/API.md"]


class TestDocsTree:
    def test_required_pages_exist(self):
        for name in DOC_FILES:
            assert (REPO / name).is_file(), f"missing {name}"

    def test_readme_links_the_docs_tree(self):
        readme = (REPO / "README.md").read_text()
        assert "docs/ARCHITECTURE.md" in readme
        assert "docs/SCENARIOS.md" in readme
        assert "docs/API.md" in readme

    def test_no_broken_relative_links(self):
        result = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "check_links.py"), *DOC_FILES],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_scenario_docs_cover_every_track_kind(self):
        """docs/SCENARIOS.md must document the full spec vocabulary."""
        from repro.scenarios.spec import TRACK_KINDS

        text = (REPO / "docs" / "SCENARIOS.md").read_text()
        for kind in TRACK_KINDS:
            assert f"`{kind}`" in text, f"track kind {kind!r} undocumented"

    def test_builtin_catalogue_documented(self):
        from repro.scenarios import BUILTIN

        text = (REPO / "docs" / "SCENARIOS.md").read_text()
        for name in BUILTIN:
            assert name in text, f"built-in scenario {name!r} undocumented"

    def test_api_docs_cover_every_notification_reason(self):
        """docs/API.md documents the full typed-reason vocabulary."""
        from repro.fuse.api import NotificationReason

        text = (REPO / "docs" / "API.md").read_text()
        for reason in NotificationReason:
            if reason is NotificationReason.UNKNOWN:
                continue  # internal fallback, not part of the contract
            assert f"`{reason.value}`" in text, f"reason {reason.value!r} undocumented"


def _quickstart(module) -> str:
    """The indented code block after the first ``::`` in a module docstring."""
    block = module.__doc__.split("::\n", 1)[1]
    lines = []
    for line in block.splitlines()[1:]:
        if line and not line.startswith("    "):
            break
        lines.append(line[4:])
    return "\n".join(lines)


class TestDocstringQuickstarts:
    """The quickstarts in the package and world docstrings run as written."""

    @pytest.mark.parametrize("module_name", ["repro", "repro.world"])
    def test_quickstart_runs(self, module_name, capsys):
        module = importlib.import_module(module_name)
        code = _quickstart(module)
        sizes = [int(n) for n in re.findall(r"n_nodes=(\d+)", code)]
        assert sizes and max(sizes) <= 50, "quickstart worlds stay small"
        exec(compile(code, f"<{module_name} quickstart>", "exec"), {"FuseWorld": FuseWorld})
        if "print(" in code:
            assert capsys.readouterr().out.startswith("failed: ")
