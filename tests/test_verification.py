"""Every stored paper check of `macoh verify-paper`, one test each."""

import pytest

from macoh.verification import CHECKS


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS])
def test_paper_check(check):
    check()
