"""The package surface: ``lowdgas`` exports each module's public names."""

import lowdgas
from lowdgas import anyon_abelian, anyon_nacs, lieb_liniger, numerics, virial

MODULES = (numerics, lieb_liniger, anyon_abelian, anyon_nacs, virial)


def test_package_exports_every_module_all_and_nothing_else():
    names = {name for module in MODULES for name in module.__all__}
    assert len(names) == 57
    assert set(lowdgas.__all__) == names | {"__version__"}
    assert len(lowdgas.__all__) == 58  # no name listed twice
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lowdgas, name) is getattr(module, name), name
