import os
from pathlib import Path

import pytest

from fareylattice import sequences

# the displayed 13-term order-6 sequence, used as a golden fixture throughout
FAREY_6 = ["0/1", "1/6", "1/5", "1/4", "1/3", "2/5",
           "1/2", "3/5", "2/3", "3/4", "4/5", "5/6", "1/1"]

# the displayed 25-term symmetric subsequence for n=12, m=6
BOOLEAN_12_6 = ["0/1", "1/7", "1/6", "1/5", "1/4", "2/7", "1/3",
                "3/8", "2/5", "3/7", "4/9", "5/11", "1/2",
                "6/11", "5/9", "4/7", "3/5", "5/8", "2/3",
                "5/7", "3/4", "4/5", "5/6", "6/7", "1/1"]


SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this checkout's package
    from any working directory: SRC first on PYTHONPATH, before the caller's own."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="session")
def golden_farey_6():
    return FAREY_6


@pytest.fixture(scope="session")
def golden_boolean_12_6():
    return BOOLEAN_12_6


@pytest.fixture
def no_sequence_built(monkeypatch):
    """Make materialize and FareySeq raise, whoever calls them."""
    def refuse(*args, **kwargs):
        raise AssertionError("a sequence was materialized")

    monkeypatch.setattr(sequences, "materialize", refuse)
    monkeypatch.setattr(sequences.FareySeq, "__init__", refuse)
