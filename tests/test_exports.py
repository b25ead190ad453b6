"""The package exports exactly what its layer modules export."""

import importlib

import eulerian_bounds
from eulerian_bounds import enclosure

LAYERS = ("bounds", "enclosure", "eulerian", "lform", "pencil", "spectra")


def test_package_all_is_the_sorted_union_of_the_layer_lists():
    union = set()
    for layer in LAYERS:
        module = importlib.import_module(f"eulerian_bounds.{layer}")
        union.update(module.__all__)
        for name in module.__all__:
            assert getattr(eulerian_bounds, name) is getattr(module, name), name
    assert eulerian_bounds.__all__ == sorted(union)


def test_enclosure_holds_no_second_root_primitive():
    # Every root, surds included, is a dyadic cell of spectra._refine_root.
    assert enclosure.__all__ == ["AlgebraicBound", "DEFAULT_PREC"]
