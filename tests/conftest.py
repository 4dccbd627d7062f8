"""Shared test configuration.

Under CI (any non-empty ``CI`` environment variable, which CI services set)
the property tests run with the ``ci`` hypothesis profile: derandomized, so
each run tries the same examples and a failure there fails the same way
locally under ``CI=1 python -m pytest``.  Elsewhere hypothesis explores
fresh examples on every run.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
