import tracemalloc

import numpy as np
import pytest

from dcgm.linalg import SolutionHistory
from dcgm.mesh import build_disk_mesh, build_rect_mesh

# registry for the acceptance suite; printed in the terminal summary so the
# per-criterion verdicts are visible even with output capture on
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def disk60():
    return build_disk_mesh(60)


@pytest.fixture(scope="session")
def disk100():
    return build_disk_mesh(100)


@pytest.fixture(scope="session")
def unit_square():
    return build_rect_mesh(9, 9, 1.0, 1.0)


@pytest.fixture()
def traced_peak():
    """``traced_peak(fn, *args)``: the peak memory, in bytes, that the call
    allocates above what was live at its entry (tracemalloc)."""
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture()
def history_log(monkeypatch):
    """``(made, added)``: every :class:`SolutionHistory` made during the
    test, and the history of every ``add``, in call order."""
    made, added = [], []
    init, add = SolutionHistory.__init__, SolutionHistory.add

    def logged_init(self):
        made.append(self)
        init(self)

    def logged_add(self, *args):
        added.append(self)
        add(self, *args)

    monkeypatch.setattr(SolutionHistory, "__init__", logged_init)
    monkeypatch.setattr(SolutionHistory, "add", logged_add)
    return made, added


@pytest.fixture()
def rng():
    return np.random.default_rng(20260822)
