"""The package must import on the oldest Python that pyproject declares.

CI runs the tier-1 suite on that floor too; these checks catch the
usual slips on any interpreter: syntax newer than the floor, and
``dataclass`` arguments added after it.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "repro").rglob("*.py"))

#: dataclass() keywords that raise TypeError before Python 3.10.
NEWER_DATACLASS_KEYWORDS = {"slots", "kw_only", "match_args"}


def declared_floor():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text)
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match.group(1)), int(match.group(2))


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: str(p.relative_to(ROOT / "src"))
)
def test_source_parses_and_avoids_newer_dataclass_keywords(path):
    tree = ast.parse(
        path.read_text(encoding="utf-8"),
        filename=str(path),
        feature_version=declared_floor(),
    )
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "dataclass":
            continue
        used = {kw.arg for kw in node.keywords} & NEWER_DATACLASS_KEYWORDS
        assert not used, f"{path.name}:{node.lineno} dataclass({', '.join(sorted(used))}=...)"
