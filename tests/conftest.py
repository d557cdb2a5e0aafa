"""Shared fixtures."""

import pytest

from cdgl import diffcore as dc


@pytest.fixture
def op_names(monkeypatch):
    """List that receives the name of every autodiff op built from now on.

    Every primitive builds its output through ``diffcore._make`` exactly once,
    so the list's length is the op count.
    """
    ops = []
    make = dc._make
    monkeypatch.setattr(dc, "_make", lambda *args: ops.append(args[1]) or make(*args))
    return ops
