import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left_behind():
    """Fail a test that leaves a child process running or unreaped, such as a trace reader."""
    yield
    if not hasattr(os, "WNOHANG"):  # no waitpid(-1, ...) off POSIX
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process was left behind: waitpid(-1, WNOHANG) gave ({pid}, {status})")
