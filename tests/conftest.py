from __future__ import annotations

import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"
FIXTURE_DIR = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def empty_reference_store(monkeypatch):
    """Each test starts with an empty reference store (see `vsr.service`).

    The store lives as long as the module, so without this one test's
    batches would warm the next.  A test that has not loaded the service
    needs nothing, and this imports nothing.
    """
    service = sys.modules.get("vsr.service")
    if service is not None:
        monkeypatch.setattr(service, "_REFERENCES", service._ReferenceStore())


def golden_paths() -> list[Path]:
    paths = sorted(GOLDEN_DIR.glob("*.v"))
    assert paths, "golden corpus is missing"
    return paths


@pytest.fixture(scope="session")
def golden_sources() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in golden_paths()}


@pytest.fixture(params=[p.name for p in golden_paths()])
def golden_source(request, golden_sources) -> str:
    """One golden file's source text; parametrized over the whole corpus."""
    return golden_sources[request.param]


@pytest.fixture(scope="session")
def reordered_pair() -> tuple[str, str]:
    left = (FIXTURE_DIR / "reordered_left.v").read_text(encoding="utf-8")
    right = (FIXTURE_DIR / "reordered_right.v").read_text(encoding="utf-8")
    return left, right
