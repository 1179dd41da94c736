"""The package's public names are exactly its library modules' __all__ lists."""
import types

import pytest

import invmoments
from invmoments import (
    charlier_expansion,
    competing,
    exact_oracle,
    poisson_moments,
    special_numbers,
)

LIBRARY_MODULES = (special_numbers, exact_oracle, poisson_moments, charlier_expansion, competing)


@pytest.mark.parametrize("module", LIBRARY_MODULES, ids=lambda m: m.__name__)
def test_every_all_name_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_exactly_the_modules_all():
    exported = {
        name for name, value in vars(invmoments).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == {name for module in LIBRARY_MODULES for name in module.__all__}
