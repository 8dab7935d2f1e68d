"""The documented examples run: the package docstrings and the README's worked example."""

import doctest
import importlib
import pathlib
import pkgutil

import pytest

import psl2count

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(f"psl2count.{info.name}" for info in pkgutil.iter_modules(psl2count.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_readme_example():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
