import pytest

from roughbound.buchstab import build_omega
from roughbound.primes import build_prime_table


@pytest.fixture(scope="session")
def table_small():
    return build_prime_table(10_100)


@pytest.fixture(scope="session")
def table_1m():
    return build_prime_table(1_000_000)


@pytest.fixture(scope="session")
def omega_table():
    return build_omega(16.0)
