"""The one environment policy of every test in the repository: no inherited
``LIGHTCLOCK_CONFIG``, which every command refuses when set.  It is deleted
for the whole session, before any module-scoped fixture runs, and children
inherit that; a test that needs it sets it with ``monkeypatch.setenv``."""

import pytest

from lightclock.cli import ENV_CONFIG


@pytest.fixture(scope="session", autouse=True)
def _no_inherited_config():
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(ENV_CONFIG, raising=False)
        yield
