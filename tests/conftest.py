"""Shared fixtures for the tier-1 suite."""

import hashlib
import json
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


@pytest.fixture(scope="session")
def golden() -> dict:
    """The pinned whole-platform digests of ``golden_digests.json``."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def sha256():
    """Hex sha256 of a text (how every golden digest is taken)."""
    return lambda text: hashlib.sha256(text.encode()).hexdigest()
