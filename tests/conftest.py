"""Shared fixtures: the default system configuration, its link budget,
and a recording stand-in for the sweeps' process pool.

Property tests draw from one fixed seed under the ``risthz`` profile, so
every run draws the same examples and the suite time stays bounded.  The
seed is not a hash of the test's source (as ``derandomize`` would make
it), so editing a test does not redraw its examples.  Setting
``HYPOTHESIS_PROFILE=explore`` draws 1,000 examples per property from a
fresh seed, which Hypothesis prints with any failure:

    HYPOTHESIS_PROFILE=explore python -m pytest -q -m hypothesis
"""

import os

import pytest
from hypothesis import settings

from risthz import experiments
from risthz.channel import derive_link_budget
from risthz.config import SystemConfig

PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "risthz")
settings.register_profile("risthz", database=None, deadline=None, max_examples=100)
settings.register_profile("explore", settings.get_profile("risthz"), max_examples=1000)
settings.load_profile(PROFILE)
TIER1_SEED = 0


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    # runs before Hypothesis' own hook, which applies --hypothesis-seed
    if PROFILE == "risthz" and config.getoption("hypothesis_seed") is None:
        config.option.hypothesis_seed = str(TIER1_SEED)


@pytest.fixture(scope="session")
def cfg():
    return SystemConfig()


@pytest.fixture(scope="session")
def budget(cfg):
    return derive_link_budget(cfg)


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of each pool a sweep opens; every pool maps
    its points serially in this process."""
    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(experiments, "_process_pool", SerialPool)
    return opened
