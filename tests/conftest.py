"""Every test starts with empty memos of the offline design, so a test that
patches a function a memoized stage calls sees that stage run."""

import pytest

from lbmpc import _memo


@pytest.fixture(autouse=True)
def empty_memos():
    _memo.clear()
