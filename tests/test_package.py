"""The package's public surface: every exported name resolves, once."""

import os
import subprocess
import sys

import idelink

SRC = os.path.dirname(os.path.dirname(os.path.abspath(idelink.__file__)))

# Standard-library modules whose import costs more than the package's own
# code; `dataclasses` alone pulls in `inspect`, `ast`, `dis` and `tokenize`.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")

_IMPORT_PROBE = f"""
import sys
heavy = {HEAVY!r}
before = [m for m in heavy if m in sys.modules]
sys.path.insert(0, {SRC!r})
import idelink
import idelink.cli
print(before, [m for m in heavy if m in sys.modules])
"""


def test_all_names_resolve_on_the_package():
    missing = [name for name in idelink.__all__ if not hasattr(idelink, name)]
    assert missing == []


def test_all_has_no_duplicates():
    seen = set()
    repeated = [name for name in idelink.__all__ if name in seen or seen.add(name)]
    assert repeated == []


def test_import_loads_no_heavy_stdlib_module():
    # A fresh interpreter without `site`: nothing heavy is loaded before
    # the import, so the check means something, and nothing after it.
    out = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[] []"
