"""Every stored paper check of `macoh verify-paper`, one test each, and
negative controls that change a stored table."""

import os
import re
import subprocess
import sys

import pytest

import macoh
from macoh import complexes, koszul, verification
from macoh.errors import VerificationError
from macoh.linalg import IntMatrix
from macoh.verification import CHECKS


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS])
def test_paper_check(check):
    check()


def test_the_bijection_check_covers_rp2(monkeypatch):
    # the zoo check compares the two pipelines on rp2, whose H and HH have
    # torsion; this check must carry its bijection
    seen = []
    monkeypatch.setattr(koszul, "hochster_koszul_iso", seen.append)
    dict(CHECKS)["bijection between the pipelines"]()
    assert complexes.rp2_minimal() in seen


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


# (stored table, the key of one entry, its new value, the check that reads
# the table, the comparison that must fail); a matrix entry changes by the
# value given
CHANGED_ENTRIES = [
    ("RP2_H", (1, 3), (11, ()), "projective plane tables", "H of rp2"),
    ("SQUARE_EDGE_H", (3, 4), (2, ()), "square with pendant edge", "H of square_edge"),
    ("TWO_TRIANGLES_H", (1, 3), (3, ()), "two triangle boundaries glued at a vertex",
     "H of two_triangles"),
    ("TWO_SQUARES_H", (4, 6), (1, ()), "two squares glued along an edge", "H of two_squares"),
    ("DOUBLE_Z2", (1, 2), (2, ()), "two squares glued along an edge", "HH of two_squares"),
    ("FOUR_CYCLE_HH", (1, 2), (3, ()), "four-cycle product", "HH of cycle(4) over Q"),
    ("PENTAGON_CONNECTING", (0, 2), -2, "pentagon connecting matrix",
     "d' of cycle(5) in the stated bases"),
    ("SQUARE_EDGE_CONNECTING", (0, 3), 2, "square with pendant edge",
     "d' of square_edge in the stated bases"),
    ("TWO_TRIANGLES_CONNECTING", (3, 3), -1, "two triangle boundaries glued at a vertex",
     "d' of two_triangles in the stated bases"),
]


@pytest.mark.parametrize("table, key, value, check, what", CHANGED_ENTRIES,
                         ids=[case[0] for case in CHANGED_ENTRIES])
def test_a_changed_table_entry_fails_its_check(monkeypatch, table, key, value, check, what):
    stored = getattr(verification, table)
    if isinstance(stored, IntMatrix):
        changed = IntMatrix.from_entries(*stored.shape, [*stored.entries(), (*key, value)])
    else:
        changed = {**stored, key: value}
    assert changed != stored
    monkeypatch.setattr(verification, table, changed)
    with pytest.raises(VerificationError, match=f"^{re.escape(what)}: got "):
        dict(CHECKS)[check]()
