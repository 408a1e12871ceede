import pytest

from flatring import lame
from flatring.elliptic import Modulus


@pytest.fixture(scope="session")
def m05():
    return Modulus.from_k(0.5)


@pytest.fixture
def basis_builds(monkeypatch):
    """The (nu, n_max) of every LameBasis whose build starts while the test runs."""
    builds, init = [], lame.LameBasis.__init__

    def counted(self, nu, m, n_max):
        builds.append((nu, n_max))
        init(self, nu, m, n_max)

    monkeypatch.setattr(lame.LameBasis, "__init__", counted)
    return builds
