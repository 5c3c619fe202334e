"""The package's export list: each module's __all__, once."""

import specklescope
from specklescope import config, correlation, errors, geometry, reconstruct, speckle, spectrum

MODULES = (config, correlation, errors, geometry, reconstruct, speckle, spectrum)


def test_export_list_is_the_union_of_the_module_lists():
    names = specklescope.__all__
    assert len(names) == len(set(names))
    assert set(names) == {"__version__"}.union(*(module.__all__ for module in MODULES))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(specklescope, name) is getattr(module, name), name
