"""Child interpreters that the tests start import thermolight from this checkout's src/, as the tests do.

`--hypothesis-profile=ci` runs every property test whose settings leave max_examples alone on 500
examples, derandomized, where the default profile runs 100.
"""

import os
import warnings

import pytest
from hypothesis import settings

# Hypothesis imports libcst to suggest a patch for a failing example. With mypy_extensions 1.1 that import warns,
# and under -W error the warning becomes an INTERNALERROR that hides the failing test and its example; importing
# the module once here, with that one warning ignored, lets the failure be reported.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

settings.register_profile("ci", max_examples=500, derandomize=True)


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_checkout():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield
