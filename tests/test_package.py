"""The package's public surface: every exported name resolves, once."""

import idelink


def test_all_names_resolve_on_the_package():
    missing = [name for name in idelink.__all__ if not hasattr(idelink, name)]
    assert missing == []


def test_all_has_no_duplicates():
    seen = set()
    repeated = [name for name in idelink.__all__ if name in seen or seen.add(name)]
    assert repeated == []
