"""Cover sets that several test modules sweep, lifted once per session.

Covers are immutable records, so tests share them; a test that needs a
changed cover builds one with ``oracles.replaced``.
"""

import pytest

from idelink.covers import lift_braid
from idelink.hasse import iter_braid_words

from oracles import wide4_words


@pytest.fixture(scope="session")
def sweep_covers():
    """(word, degree, cover) for the acceptance sweep: <=3 strands, length <=5, degrees 2-5."""
    return [(b, n, lift_braid(b, n)) for b in iter_braid_words(3, 5) for n in (2, 3, 4, 5)]


@pytest.fixture(scope="session")
def wide4_covers():
    """(word, degree, cover) for every pair of ``oracles.wide4_words``."""
    return [(b, n, lift_braid(b, n)) for b, n in wide4_words()]
