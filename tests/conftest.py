"""Cover sets that several test modules sweep, lifted once per session.

Covers are immutable records, so tests share them; a test that needs a
changed cover builds one with ``oracles.replaced``.
"""

import pytest

from idelink.covers import lift_braid
from idelink.hasse import iter_braid_words

import oracles


@pytest.fixture(scope="session")
def sweep_covers():
    """(word, degree, cover) for the acceptance sweep: <=3 strands, length <=5, degrees 2-5."""
    return [(b, n, lift_braid(b, n)) for b in iter_braid_words(3, 5) for n in (2, 3, 4, 5)]


@pytest.fixture(scope="session")
def wide4_covers():
    """(word, degree, cover) for every pair of ``oracles.wide4_words``."""
    return [(b, n, lift_braid(b, n)) for b, n in oracles.wide4_words()]


@pytest.fixture(scope="session")
def cover_families(sweep_covers, wide4_covers):
    """The cover families the route cross-checks run over, by name, each built once.

    ``tests/test_hasse.py`` holds each family's size and its row of floors.
    """
    sweep = [c for _, _, c in sweep_covers]
    return {
        "sweep": sweep,
        "wide4": [c for _, _, c in wide4_covers],
        "relabeled": oracles.relabeled_covers(sweep[::100], 29),
        "moved_pushforward": oracles.moved_pushforward_entries(sweep, 31),
        # <=3 strands, length <=3, degrees 2-5.
        "moved_pushforward_short": oracles.moved_pushforward_entries(
            [c for b, _, c in sweep_covers if len(b.letters) <= 3], 17
        ),
        "swapped_deck": oracles.swapped_deck_targets(sweep, 37),
        "patched_kept": oracles.patched_generators(sweep[::20], kept=True),
        "patched_broken": oracles.patched_generators(sweep[::20], kept=False),
        "doubled_longitudes": oracles.doubled_longitudes(sweep[::20]),
        "zero_pushforward": oracles.zero_pushforwards(sweep[::20]),
        "moved_generator": oracles.moved_generator_entries(sweep[::7], 26),
        "all_degrees": oracles.all_degree_covers(12, 40),
    }
