import pytest

from hecke_sphere import theta


@pytest.fixture
def fresh_petersson_cache():
    """Estimates computed in the test are neither read from nor left in the
    ``petersson_estimate`` cache (a test may patch what they depend on, or
    compare two runs that must both compute)."""
    theta._petersson_estimate.cache_clear()
    yield
    theta._petersson_estimate.cache_clear()
