import pytest

from flatring.elliptic import Modulus


@pytest.fixture(scope="session")
def m05():
    return Modulus.from_k(0.5)
