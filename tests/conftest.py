import pytest


@pytest.fixture(autouse=True, scope="session")
def tape_cache(tmp_path_factory):
    """The compiled tape executor is built into a directory of the test
    session, not into the user's cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield
