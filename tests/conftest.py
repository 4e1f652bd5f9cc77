"""Shared fixtures: the default system configuration, its link budget,
and a recording stand-in for the sweeps' process pool.

Property tests run under a derandomized Hypothesis profile so that every
run draws the same examples and the suite time stays bounded.
"""

import pytest
from hypothesis import settings

from risthz import experiments
from risthz.channel import derive_link_budget
from risthz.config import SystemConfig

settings.register_profile("risthz", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("risthz")


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
