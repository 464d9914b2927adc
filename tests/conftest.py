from pathlib import Path

import pytest

from mapindep.cli import load_network
from mapindep.model import Cpt, Network, Variable

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
TF = ("T", "F")


def gated_network() -> Network:
    # R copies E, so under E=T the focus assignment R=F has probability zero.
    return Network(
        "gated",
        (Variable("E", TF), Variable("R", TF), Variable("H", TF)),
        (
            Cpt("E", (), ((0.5, 0.5),)),
            Cpt("R", ("E",), ((1.0, 0.0), (0.0, 1.0))),
            Cpt("H", (), ((0.7, 0.3),)),
        ),
    )


@pytest.fixture(scope="session")
def fig1a():
    return load_network(FIXTURES / "fig1a.json")


@pytest.fixture(scope="session")
def fig1b():
    return load_network(FIXTURES / "fig1b.json")


@pytest.fixture(scope="session")
def fn_ter():
    return load_network(FIXTURES / "fn_ter.json")


@pytest.fixture(scope="session")
def fn_bin():
    return load_network(FIXTURES / "fn_bin.json")
