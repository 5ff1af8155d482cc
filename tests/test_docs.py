"""The documentation suite stays present and lint-clean.

Mirrors the CI "Documentation check" step inside tier-1, so docstring
coverage on the documented hot modules and the README/docs link graph
cannot rot between CI configurations.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_required_documents_exist():
    assert (REPO / "README.md").exists()
    assert (REPO / "docs" / "architecture.md").exists()


def test_readme_has_quickstart_code():
    text = (REPO / "README.md").read_text()
    assert "```python" in text
    assert "Repose.build(" in text


def test_docs_lint_passes():
    result = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py")],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr


def _load_check_docs():
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cited_documents_must_exist(tmp_path):
    check_docs = _load_check_docs()
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text("# Guide\n")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        '"""See docs/guide.md and guide.md."""\n\n'
        'def f():\n    """Details in MISSING.md."""\n')
    problems = check_docs.check_cited_documents(tmp_path)
    assert len(problems) == 1
    assert "MISSING.md" in problems[0]
