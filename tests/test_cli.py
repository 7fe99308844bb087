"""Command-line interface: verbs, exit codes, output formats."""

import json
import subprocess
import sys

import pytest

from macoh import cli
from macoh import complexes
from macoh import hochster
from macoh import linalg
from macoh.complexes import SimplicialComplex


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_prints_the_pentagon_double_cohomology(capsys):
    code, out, _ = run(["compute", "--gen", "cycle:5", "--what", "HH"], capsys)
    assert code == 0
    for label in ["(0, 0)", "(-1, 4)", "(-2, 6)", "(-3, 10)"]:
        assert f"{label}" in out
    assert out.count("rank 1") == 4
    assert "euler characteristic of HH: 0" in out


def test_compute_json_round_trips_the_complex(capsys):
    code, out, _ = run(["compute", "--gen", "rp2", "--what", "all",
                        "--json", "--verify"], capsys)
    assert code == 0
    report = json.loads(out)
    assert SimplicialComplex.from_json_dict(report["input"]) == complexes.rp2_minimal()
    assert report["agreement"] is True
    assert report["euler"] == 0
    assert {"k": -3, "l": 12, "rank": 0, "torsion": [2]} in report["HH"]
    assert {"k": -1, "l": 6, "rank": 10, "torsion": []} in report["H"]
    hom_bidegrees = {(r["k"], r["l"]) for r in report["HH_hom"]}
    assert (-3, 12) not in hom_bidegrees and (-4, 12) not in hom_bidegrees


def test_compute_simplex_all(capsys):
    code, out, _ = run(["compute", "--gen", "simplex:4", "--what", "all",
                        "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["H"] == [{"k": 0, "l": 0, "rank": 1, "torsion": []}]
    assert report["HH"] == [{"k": 0, "l": 0, "rank": 1, "torsion": []}]
    assert report["euler"] == 1


def test_what_selects_tables(capsys):
    code, out, _ = run(["compute", "--gen", "cycle:4", "--what", "H", "--json"],
                       capsys)
    assert code == 0
    report = json.loads(out)
    assert report["H"] is not None
    assert report["HH"] is None
    assert report["HH_hom"] is None
    assert report["euler"] is None
    assert report["agreement"] is None


def test_field_coefficients(capsys):
    code, out, _ = run(["compute", "--gen", "cycle:4", "--what", "HH",
                        "--coeff", "Q", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["input"]["coefficients"] == "Q"
    assert report["HH"] == [
        {"k": 0, "l": 0, "rank": 1, "torsion": []},
        {"k": -1, "l": 4, "rank": 2, "torsion": []},
        {"k": -2, "l": 8, "rank": 1, "torsion": []},
    ]

    code, _, err = run(["compute", "--gen", "cycle:4", "--coeff", "Fp"], capsys)
    assert code == 1 and "requires --p" in err
    code, _, err = run(["compute", "--gen", "cycle:4", "--coeff", "Fp",
                        "--p", "6"], capsys)
    assert code == 1 and "prime" in err
    code, _, err = run(["compute", "--gen", "cycle:4", "--coeff", "Z",
                        "--p", "3"], capsys)
    assert code == 1


def test_large_prime_field(capsys):
    rows = {}
    for coeff in (["Q"], ["Fp", "--p", str(2 ** 61 - 1)]):
        code, out, _ = run(["compute", "--gen", "cycle:4", "--what", "H", "--json",
                            "--coeff"] + coeff, capsys)
        assert code == 0
        rows[coeff[0]] = json.loads(out)["H"]
    assert rows["Fp"] == rows["Q"]
    code, out, err = run(["compute", "--gen", "cycle:4", "--coeff", "Fp",
                          "--p", "18446744073709551629"], capsys)
    assert code == 1 and out == "" and err.startswith("error:") and "2**64" in err


def test_mod_two_of_the_projective_plane(capsys):
    code, out, _ = run(["compute", "--gen", "rp2", "--what", "HH",
                        "--coeff", "Fp", "--p", "2", "--json", "--verify"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["agreement"] is True
    assert {(r["k"], r["l"]): r["rank"] for r in report["HH"]} == {
        (0, 0): 1, (-1, 6): 1, (-2, 8): 1, (-3, 12): 1}


def test_input_errors_exit_one(capsys):
    assert run(["compute", "--gen", "nosuch"], capsys)[0] == 1
    assert run(["compute", "--gen", "cycle:2"], capsys)[0] == 1
    assert run(["compute", "--gen", "cycle:banana"], capsys)[0] == 1
    assert run(["compute", "--gen", "rp2:3"], capsys)[0] == 1
    assert run(["compute", "--gen", "cycle"], capsys)[0] == 1
    assert run(["compute", "--file", "/no/such/file"], capsys)[0] == 1


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-verb"])
    assert info.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["compute"])
    assert info.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["compute", "--gen", "cycle:4", "--threads", "2"])
    assert info.value.code == 1


def test_reads_text_and_json_files(tmp_path, capsys):
    path = tmp_path / "k.txt"
    path.write_text(complexes.cycle(4).to_text())
    code, out, _ = run(["compute", "--file", str(path), "--what", "HH",
                        "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert SimplicialComplex.from_json_dict(report["input"]) == complexes.cycle(4)

    jpath = tmp_path / "k.json"
    jpath.write_text(complexes.cycle(4).to_json())
    code, out2, _ = run(["compute", "--file", str(jpath), "--what", "HH",
                         "--json"], capsys)
    assert code == 0
    assert json.loads(out2)["HH"] == report["HH"]


def test_reads_stdin(monkeypatch, capsys):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(complexes.two_triangles().to_text()))
    code, out, _ = run(["compute", "--file", "-", "--what", "HH", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert SimplicialComplex.from_json_dict(report["input"]) == complexes.two_triangles()


def test_stdout_is_byte_identical_across_runs(capsys):
    argv = ["compute", "--gen", "two_squares", "--what", "all", "--json", "--verify"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_disagreement_exits_two(monkeypatch, capsys):
    class Stub:
        class kc:
            @staticmethod
            def invariants():
                return {}

        @staticmethod
        def invariants():
            return {}

    monkeypatch.setattr(cli.koszul, "hh_via_koszul", lambda rc: Stub)
    code, out, err = run(["compute", "--gen", "cycle:4", "--what", "HH",
                          "--verify"], capsys)
    assert code == 2
    assert "pipeline agreement: no" in out
    assert "disagree" in err


def test_verify_paper_filter(capsys):
    code, out, _ = run(["verify-paper", "--only", "four-cycle product"], capsys)
    assert code == 0
    assert "1/1 checks passed" in out
    code, _, err = run(["verify-paper", "--only", "no such check"], capsys)
    assert code == 1
    assert "no checks match" in err


def test_fuzz_clean_run(capsys):
    code, out, _ = run(["fuzz", "--seed", "1", "--m-max", "5", "--trials", "5"],
                       capsys)
    assert code == 0
    assert "5 trials, 0 violations" in out


def test_fuzz_zero_trials(capsys):
    code, out, _ = run(["fuzz", "--trials", "0"], capsys)
    assert code == 0
    assert "0 trials, 0 violations" in out


def test_fuzz_negative_trials_is_an_input_error(capsys):
    code, out, err = run(["fuzz", "--trials", "-5"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_fuzz_negative_control_catches_the_fault(capsys):
    code, out, _ = run(["fuzz", "--seed", "3", "--trials", "3",
                        "--inject-sign-fault"], capsys)
    assert code == 2
    assert "VIOLATION" in out
    serialized = out[out.index("{"):]
    serialized = serialized[:serialized.index("}") + 1]
    reparsed = SimplicialComplex.from_json(serialized)
    assert reparsed == complexes.rp2_minimal()


def test_fuzz_catches_double_homology_ranks_that_disagree(monkeypatch, capsys):
    real = hochster.double_homology

    def drop_a_bidegree(k, sign_fault=False):
        dd = real(k, sign_fault)
        del dd.groups[next(b for b, sq in sorted(dd.groups.items()) if sq.rank)]
        return dd

    monkeypatch.setattr(hochster, "double_homology", drop_a_bidegree)
    code, out, _ = run(["fuzz", "--seed", "1", "--trials", "1"], capsys)
    assert code == 2
    assert "trial 1 (rp2): VIOLATION: free ranks of double homology and double " \
           "cohomology disagree at bidegree (0, 0)" in out


def test_fuzz_catches_a_fault_that_both_pipelines_share(monkeypatch, capsys):
    real = linalg.homology_of_pair

    def doubled_boundaries(f, g):
        # ker(g)/im(2f): every homology group of both pipelines gains
        # 2-torsion, so their tables still agree, and so do the free ranks
        return real(linalg.GroupMorphism(f.source, f.target, f.matrix.scaled(2)), g)

    monkeypatch.setattr(linalg, "homology_of_pair", doubled_boundaries)
    code, out, _ = run(["fuzz", "--seed", "1", "--trials", "1"], capsys)
    assert code == 2
    assert "trial 1 (rp2): VIOLATION: cohomology over F_2 disagrees with the universal " \
           "coefficient theorem at bidegree (0, 2)" in out


def test_fuzz_catches_double_cohomology_over_q_that_disagrees(monkeypatch, capsys):
    real = hochster.double_field

    def extra_class(k, field, side="cohomology"):
        dims = real(k, field, side)
        dims[(0, 0)] += 1
        return dims

    monkeypatch.setattr(hochster, "double_field", extra_class)
    code, out, _ = run(["fuzz", "--seed", "1", "--trials", "1"], capsys)
    assert code == 2
    assert "trial 1 (rp2): VIOLATION: double cohomology over Q disagrees with the free " \
           "ranks over Z at bidegree (0, 0)" in out


def test_generate(tmp_path, capsys):
    code, out, _ = run(["generate", "cycle:4"], capsys)
    assert code == 0
    assert SimplicialComplex.from_text(out) == complexes.cycle(4)

    path = tmp_path / "out.txt"
    code, out, _ = run(["generate", "rp2", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert SimplicialComplex.from_text(path.read_text()) == complexes.rp2_minimal()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "macoh.cli", "compute", "--gen", "boundary:3",
         "--what", "HH", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["HH"] == [
        {"k": 0, "l": 0, "rank": 1, "torsion": []},
        {"k": -1, "l": 6, "rank": 1, "torsion": []},
    ]
