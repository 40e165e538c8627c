"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from semiflrw import solver


@pytest.fixture
def sweeps(monkeypatch):
    """The nodes of every bank sweep (solver.evolve_bank call) that the
    test's runs make, in order."""
    evolve, swept = solver.evolve_bank, []

    def counted(*args, **kwargs):
        swept.append(args[3])
        return evolve(*args, **kwargs)

    monkeypatch.setattr(solver, "evolve_bank", counted)
    return swept
