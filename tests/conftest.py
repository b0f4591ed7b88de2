import json
from pathlib import Path

import pytest

from tetraopt import MIXER_BOUNDS
from tetraopt.optimizer import SearchGrid

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def mixer_grid() -> SearchGrid:
    """The default mixer grid: 5 points per dimension over the parameter box."""
    return SearchGrid([(lo, hi, 5) for lo, hi in MIXER_BOUNDS])


@pytest.fixture(scope="session")
def mixer_grid_min() -> dict:
    """Frozen exhaustive-sweep optimum of the mixer surrogate on the 5^4 grid."""
    with open(DATA_DIR / "mixer_grid_min.json") as fh:
        return json.load(fh)


def _crash():
    raise RuntimeError("simulation crashed")


_BROKEN_OUTCOMES = {
    "raise": _crash,
    "nan": lambda: float("nan"),
    "+inf": lambda: float("inf"),
    "-inf": lambda: float("-inf"),
    "None": lambda: None,
}


class HalfBroken:
    """1-D objective on [0, 1]: ``x`` for ``x >= 0.5``, a broken outcome below.

    ``evaluate`` returns the broken outcome as is (it is not a
    :class:`~tetraopt.BlackBoxObjective`, which would coerce it to float), and
    counts its calls.
    """

    dimension = 1
    bounds = ((0.0, 1.0),)

    def __init__(self, broken):
        self.broken = broken
        self.calls = 0

    def evaluate(self, x):
        self.calls += 1
        return float(x[0]) if x[0] >= 0.5 else self.broken()


@pytest.fixture(params=list(_BROKEN_OUTCOMES))
def half_broken(request) -> HalfBroken:
    """A :class:`HalfBroken` objective for each way an evaluation can fail."""
    return HalfBroken(_BROKEN_OUTCOMES[request.param])
