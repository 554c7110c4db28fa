"""Every ``functools`` cache in the package is cleared before each test or named here as uncounted.

A cache that ``tests/conftest.py`` does not clear makes any test that counts
work depend on which tests ran before it.  So a cache added to the package
must join ``conftest._CACHES``, or this list if no test counts its hits.
"""

import importlib
import pkgutil

import poincare_hardy
from conftest import _CACHES

# caches of pure lookups whose hits no test counts: Gauss-Legendre rules, the
# suite manifest, the extended Yang coefficients and the CLI's argument parser
_UNCOUNTED = {"quadrature._gauss", "profiles._manifest", "constants.yang_extended", "cli._build_parser"}


def _package_caches() -> dict[int, str]:
    """``{id: "<module>.<name>"}`` of every module-level attribute with ``cache_clear``, at its home module."""
    found = {}
    for info in pkgutil.iter_modules(poincare_hardy.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"poincare_hardy.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                found[id(value)] = f"{value.__module__.rpartition('.')[2]}.{value.__qualname__}"
    return found


def test_every_cache_is_cleared_or_listed_as_uncounted():
    found = _package_caches()
    cleared = {id(cached) for cached in _CACHES}
    assert cleared <= found.keys()
    assert {name for key, name in found.items() if key not in cleared} == _UNCOUNTED
