"""Shared settings for the hypothesis property tests.

The property tests are derandomized and keep no example database, so every
run draws the same examples.  hypothesis caches the constants it reads from
the source files under its storage directory whatever the database setting;
that cache goes to a temporary directory, out of the working tree.
"""

import os
import tempfile

from hypothesis import settings

_STORAGE = tempfile.TemporaryDirectory()
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _STORAGE.name)

settings.register_profile("bc2mvop", derandomize=True, database=None,
                          deadline=None, max_examples=25)
settings.load_profile("bc2mvop")
