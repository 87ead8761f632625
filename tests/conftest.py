from pathlib import Path

import pytest

from hierpower import HierNet, load_document

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


@pytest.fixture(scope="session")
def fig1() -> HierNet:
    """Eight nodes; 1,2 jointly control 6; 3,4,5 jointly control 7 and 8."""
    return load_document(FIXTURES / "fig1.json").network


@pytest.fixture(scope="session")
def fig2() -> HierNet:
    """Five nodes; 1 controls 2..5, nodes 4 and 5 are contested."""
    return load_document(FIXTURES / "fig2.json").network


@pytest.fixture(scope="session")
def fig3() -> HierNet:
    """Eight nodes; every contested node has exactly two controllers."""
    return load_document(FIXTURES / "fig3.json").network


@pytest.fixture(scope="session")
def edgeless() -> HierNet:
    return HierNet(4, [set(), set(), set(), set()])


@pytest.fixture(scope="session")
def chain2() -> HierNet:
    """Single edge 0 -> 1."""
    return HierNet(2, [{1}, set()])
