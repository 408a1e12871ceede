import pytest

from flatring import lame
from flatring.elliptic import Modulus


@pytest.fixture(scope="session")
def m05():
    return Modulus.from_k(0.5)


@pytest.fixture
def basis_builds(monkeypatch):
    """The (nu, n_max) of every Galerkin solve of one nu that an OrderSet
    starts while the test runs."""
    builds, solve = [], lame.OrderSet._solve

    def counted(self, i):
        builds.append((float(self._nu[i, 0]), self.n_max))
        return solve(self, i)

    monkeypatch.setattr(lame.OrderSet, "_solve", counted)
    return builds
