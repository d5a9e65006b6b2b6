"""Fixtures shared by the test modules."""

import pytest

from scrolleq import scroll


@pytest.fixture
def no_expansion(monkeypatch):
    """Make expanding any weight generator fail the test."""

    def refuse(bridges, group):
        raise AssertionError("a weight generator was expanded")

    monkeypatch.setattr(scroll, "g_polynomial", refuse)
