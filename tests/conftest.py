"""Child interpreters that the tests start import thermolight from this checkout's src/, as the tests do.

`--hypothesis-profile=ci` runs every property test whose settings leave max_examples alone on 500
examples, derandomized, where the default profile runs 100.
"""

import os

import pytest
from hypothesis import settings

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

settings.register_profile("ci", max_examples=500, derandomize=True)


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_checkout():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield
