import lglattice
from lglattice import couplings, density, design, manybody, modes

MODULES = (couplings, density, design, manybody, modes)


def test_package_exports_every_public_name_of_its_modules_once():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names), "a name is public in two modules"
    assert lglattice.__all__ == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lglattice, name) is getattr(module, name), name
