import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """Fail any test after which a multiprocessing child is still alive, and
    stop it so that later tests start clean."""
    yield
    leaked = multiprocessing.active_children()
    for process in leaked:
        process.kill()
        process.join()
    assert not leaked, f"processes still running after the test: {leaked}"
