import pytest
from hypothesis import settings

from chainfft.combinat import ChainKind
from chainfft.reps import DEFAULT_Q, adapted_rep

# One profile for every property test: example counts stay per test, draws stay
# random, and no deadline, since a first draw may build a representation.
settings.register_profile("chainfft", deadline=None)
settings.load_profile("chainfft")


@pytest.fixture(scope="session")
def rep_cache():
    """Session-shared adapted representations (the Brauer builds are costly)."""

    def get(kind: ChainKind, n: int, q=DEFAULT_Q):
        return adapted_rep(kind, n, q)

    return get
