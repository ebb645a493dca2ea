"""Settings shared by ``tests/`` and ``bench/tests``."""

import pytest

import gridcoord.lp as lp


@pytest.fixture(scope="session", autouse=True)
def strict_solves():
    """Hold every LP solve of the session to a duality gap and a residual of 1e-7.

    ``lp.solve`` raises ``SolverError`` when either exceeds ``SOLVE_BOUND``
    (1e-5 outside the tests), so a solve beyond 1e-7 fails the test that
    made it. The hold is session-wide so that it is in force before any
    module fixture solves, and a test's own ``monkeypatch`` of the bound
    restores 1e-7.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "SOLVE_BOUND", 1e-7)
        yield
