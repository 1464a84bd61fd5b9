"""Test configuration.

When the ``CI`` environment variable is set, the ``hypothesis`` profile
``ci`` is loaded: property tests draw their examples deterministically,
so a CI run repeats exactly. Local runs stay randomized.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
