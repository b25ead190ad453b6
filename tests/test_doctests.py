"""The library's docstring examples run as part of the suite."""

import doctest
import importlib
import pkgutil

import pytest

import eulerian_bounds

MODULES = ["eulerian_bounds"] + [
    f"eulerian_bounds.{info.name}"
    for info in pkgutil.iter_modules(eulerian_bounds.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    failed, _ = doctest.testmod(importlib.import_module(name))
    assert failed == 0


def test_doctests_are_found():
    # Guards against a collection change that would let the above pass
    # by running nothing.
    finder = doctest.DocTestFinder()
    examples = sum(
        len(test.examples)
        for name in MODULES
        for test in finder.find(importlib.import_module(name))
    )
    assert examples >= 12
