"""Every test starts with every process-level cache empty.

The caches only skip work, but a test that counts tower builds, profile jets
or doubling loops would otherwise depend on which tests ran before it.
"""

import pytest

from poincare_hardy import constants, halfspace, operators, quadrature

_CACHES = (
    quadrature._cached_grid,  # each grid owns its term and jet memos, so this clears those too
    quadrature._grid_weight,
    operators.radial_table,
    constants.chain_replay,
    halfspace.build_plane_grid,  # each plane grid owns its jet and field memo, so this clears that too
)


def _clear_caches():
    for cached in _CACHES:
        cached.cache_clear()


@pytest.fixture(autouse=True)
def clear_caches():
    """Empty every cache before the test; the test may call the returned function to empty them again."""
    _clear_caches()
    return _clear_caches
