"""Every stored paper check of `macoh verify-paper`, one test each."""

import os
import subprocess
import sys

import pytest

import macoh
from macoh.verification import CHECKS


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS])
def test_paper_check(check):
    check()


def test_a_corrupted_table_fails_under_python_O():
    # -O strips assert statements; the checks must fail without them
    code = ("import sys\n"
            "from macoh import verification\n"
            "verification.PENTAGON_H[(1, 2)] = (6, ())\n"
            "sys.exit(verification.run_checks(only='pentagon cohomology'))\n")
    src = os.path.dirname(os.path.dirname(macoh.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "0/1 checks passed" in proc.stdout
    assert "FAIL pentagon cohomology table: VerificationError(" in proc.stdout
    assert "H of cycle(5), Hochster" in proc.stdout and "(6, ())" in proc.stdout
