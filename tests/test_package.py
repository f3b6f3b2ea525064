"""The package's public names are its modules' public lists."""

import symplevy as sl
from symplevy import analysis, errors, hamiltonian, integrators, levy_path, marcus


def test_the_package_publishes_each_modules_all_once():
    modules = (errors, levy_path, hamiltonian, marcus, integrators, analysis)
    published = ["__version__"] + [name for module in modules for name in module.__all__]
    assert sorted(sl.__all__) == sorted(published)
    assert len(set(published)) == len(published)
    assert "DEFAULT_SUBSTEPS" in marcus.__all__
    for module in modules:
        for name in module.__all__:
            assert getattr(sl, name) is getattr(module, name), name
    assert isinstance(sl.__version__, str)
