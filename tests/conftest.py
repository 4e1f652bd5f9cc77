"""Shared fixtures: the default system configuration and its link budget.

Property tests run under a derandomized Hypothesis profile so that every
run draws the same examples and the suite time stays bounded.
"""

import pytest
from hypothesis import settings

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
