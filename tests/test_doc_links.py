"""Every intra-repo link in the documentation must resolve.

Scans ``README.md`` and ``docs/*.md`` for markdown links and checks
that relative targets exist in the working tree (anchors are stripped;
external ``http(s)``/``mailto`` links are skipped).  This is the CI
docs gate: a renamed file or a typo'd path fails here instead of
shipping a dead link.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — good enough for our docs; skips ``![image]``
#: alt-text brackets by matching the link part only.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

DOC_PAGES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)


def intra_repo_links(page: Path) -> list[str]:
    links = []
    for target in LINK.findall(page.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        links.append(target)
    return links


@pytest.mark.parametrize("page", DOC_PAGES, ids=lambda p: p.name)
def test_intra_repo_links_resolve(page):
    broken = []
    for target in intra_repo_links(page):
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (page.parent / path).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{page.name}: broken links {broken}"


def test_docs_pages_exist():
    """The pages the PR contract names must all be present."""
    names = {page.name for page in DOC_PAGES}
    assert {
        "README.md",
        "architecture.md",
        "serving.md",
        "benchmarks.md",
    } <= names
