import pytest

from althecke.combinat import compositions_of


def compositions_with_length(n, length):
    return [k for k in compositions_of(n) if len(k) == length]


@pytest.fixture(scope="session")
def goldens(request):
    from pathlib import Path

    return Path(__file__).parent / "golden"
