"""Documentation integrity: links and code references in README.md and docs/.

Every relative markdown link must point at a file that exists, and every
``#anchor`` fragment must match a heading in the target file (GitHub slug
rules: lowercase, punctuation stripped, spaces to hyphens).  External
(``http``/``https``) links are out of scope — CI has no network.  Every
code span naming a ``repro.``-dotted object (optionally ``module:attr``)
must import and resolve, so a renamed or deleted API cannot linger in the
docs.
"""

from __future__ import annotations

import pkgutil
import re
from pathlib import Path
from typing import List, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))

#: markdown inline links, skipping images; code spans are stripped first.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_CODE_SPAN = re.compile(r"`[^`]*`")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: a code span that starts with a dotted ``repro`` name, e.g.
#: `repro.engine.InferenceSession` or `repro.engine.bench:ecc_benchmark`.
_REPRO_NAME = re.compile(r"`(repro(?:\.\w+)+(?::\w+)?)")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a markdown heading text."""
    text = _CODE_SPAN.sub(lambda m: m.group(0).strip("`"), heading)
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _links_of(path: Path) -> List[str]:
    text = _CODE_SPAN.sub("", path.read_text())
    return _LINK.findall(text)


def _anchors_of(path: Path) -> List[str]:
    return [github_slug(h) for h in _HEADING.findall(path.read_text())]


def _internal_links() -> List[Tuple[Path, str]]:
    found = []
    for doc in DOC_FILES:
        for target in _links_of(doc):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            found.append((doc, target))
    return found


def test_docs_tree_complete():
    """The four reference guides the README promises all exist."""
    for name in ("architecture.md", "error-models.md", "engine.md",
                 "serving.md"):
        assert (ROOT / "docs" / name).is_file(), f"docs/{name} is missing"


@pytest.mark.parametrize("doc,target", _internal_links(),
                         ids=lambda v: str(v) if isinstance(v, str)
                         else v.name)
def test_internal_link_resolves(doc, target):
    path_part, _, anchor = target.partition("#")
    if path_part:
        resolved = (doc.parent / path_part).resolve()
        assert resolved.exists(), (
            f"{doc.relative_to(ROOT)} links to {path_part}, which does not "
            "exist")
    else:
        resolved = doc
    if anchor:
        assert resolved.suffix == ".md", (
            f"{doc.relative_to(ROOT)}: anchor link into non-markdown "
            f"{target}")
        anchors = _anchors_of(resolved)
        assert anchor in anchors, (
            f"{doc.relative_to(ROOT)} links to {target}, but "
            f"{resolved.name} has no heading with slug {anchor!r} "
            f"(available: {anchors})")


def test_every_doc_has_links_scanned():
    """Sanity: the scanner actually finds links (regex rot guard)."""
    assert len(_internal_links()) >= 8


def _repro_names() -> List[str]:
    return sorted({name for doc in DOC_FILES
                   for name in _REPRO_NAME.findall(doc.read_text())})


@pytest.mark.parametrize("name", _repro_names())
def test_repro_reference_resolves(name):
    pkgutil.resolve_name(name)   # raises ImportError/AttributeError if stale


def test_repro_references_scanned():
    """Sanity: the scanner finds the API references (regex rot guard)."""
    assert len(_repro_names()) >= 30
