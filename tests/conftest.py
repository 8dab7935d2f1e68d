"""Opt-in tests: a test marked slow runs only when PSL2COUNT_SLOW=1."""

import os

import pytest


def pytest_collection_modifyitems(config, items):
    if os.environ.get("PSL2COUNT_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="slow; set PSL2COUNT_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
