"""Session setup shared by the tests."""

import tempfile

from hypothesis import configuration

# hypothesis caches each module's constants in its storage directory,
# ``.hypothesis/`` under the working directory by default, even for tests
# with ``database=None``, and it does so while collecting; so the storage
# moves to a temporary directory before then and goes at the session's end
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")


def pytest_configure(config):
    configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()
