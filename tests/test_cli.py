"""Command-line interface: verbs, exit codes, output formats."""

import json
import random
import subprocess
import sys

import pytest

from dense_oracle import scaled
from macoh import cli
from macoh import complexes
from macoh import hochster
from macoh import koszul
from macoh import linalg
from macoh.complexes import SimplicialComplex
from macoh.errors import VerificationError


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


def _input_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    return err


def test_undecodable_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe\x00")
    assert "cannot read" in _input_error(["compute", "--file", str(path)], capsys)


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    depth = 200_000
    path.write_text('{"m": 3, "maximal_faces": ' + "[" * depth + "]" * depth + "}")
    assert "nested too deeply" in _input_error(["compute", "--file", str(path)], capsys)


def test_json_file_with_a_repeated_key_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text('{"m": 2, "maximal_faces": [[1, 2]], "m": 3}')
    assert "'m' appears twice" in _input_error(["compute", "--file", str(path)], capsys)


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

    monkeypatch.setattr(cli.koszul, "hh_via_koszul", lambda rc, field=None: Stub)
    code, out, err = run(["compute", "--gen", "cycle:4", "--what", "HH",
                          "--verify"], capsys)
    assert code == 2
    assert "pipeline agreement: no" in out
    assert "disagree" in err


def test_verify_compares_h_with_hh_on_each_strand(monkeypatch, capsys):
    real = cli._double_tables

    def one_more_class(k, field, side):
        hd, hh = real(k, field, side)
        rank, torsion = hh[(0, 0)]
        return hd, {**hh, (0, 0): (rank + 1, torsion)}

    monkeypatch.setattr(cli, "_double_tables", one_more_class)
    code, out, err = run(["compute", "--gen", "cycle:5", "--verify"], capsys)
    assert code == 2
    assert out == ""
    assert "verification failure: H and HH over Z have different Euler characteristics " \
           "on the strand p = -1" in err


def test_a_linalg_error_in_compute_is_a_verification_failure(monkeypatch, capsys):
    real = hochster.read_off_cohomology

    def one_more_generator(orders, build):
        # the groups read off no longer match the complex built for d'
        return real({**orders, 0: orders.get(0, ()) + (0,)}, build)

    monkeypatch.setattr(hochster, "read_off_cohomology", one_more_generator)
    code, out, err = run(["compute", "--gen", "cycle:6"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("verification failure: groups read off a smaller subset have the "
                          "orders") and "Traceback" not in err


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


def test_fuzz_help_names_every_option_and_the_fixed_first_trials(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["fuzz", "--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps lines
    for option in ("--seed SEED seed of the random complexes",
                   "--m-max M_MAX most vertices of a random complex",
                   "--trials TRIALS number of complexes",
                   "--inject-sign-fault negative control"):
        assert option in text
    assert "trials 1 and 2 are always rp2 and two_squares, whatever --m-max" in text


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


def test_fuzz_catches_doubled_boundaries_where_a_read_off_subset_is_built(monkeypatch, capsys):
    real = linalg.homology_of_pair

    def doubled_boundaries(f, g):
        # ker(g)/im(2f): every homology group that is built gains 2-torsion,
        # but not the groups the sweep reads off a smaller subset, so
        # building one of those for d' finds other orders
        return real(linalg.GroupMorphism(f.source, f.target, scaled(f.matrix, 2)), g)

    monkeypatch.setattr(linalg, "homology_of_pair", doubled_boundaries)
    code, out, _ = run(["fuzz", "--seed", "1", "--trials", "1"], capsys)
    assert code == 2
    assert "trial 1 (rp2): VIOLATION: groups read off a smaller subset have the orders " \
           "{0: (2,)} per degree, their built complex {0: (2,), 1: (2,)}" in out


def test_fuzz_catches_tripled_boundaries_where_a_read_off_subset_is_built(monkeypatch, capsys):
    real = linalg.homology_of_pair

    def tripled_boundaries(f, g):
        # ker(g)/im(3f): odd torsion, which F_2 cannot see and Q ignores
        return real(linalg.GroupMorphism(f.source, f.target, scaled(f.matrix, 3)), g)

    monkeypatch.setattr(linalg, "homology_of_pair", tripled_boundaries)
    code, out, _ = run(["fuzz", "--seed", "3", "--m-max", "7", "--trials", "2"], capsys)
    assert code == 2
    assert "trial 1 (rp2): VIOLATION: groups read off a smaller subset have the orders " \
           "{0: (3,)} per degree, their built complex {0: (3,), 1: (3,)}" in out


@pytest.mark.parametrize("p, argv", [(2, ["--seed", "1", "--trials", "1"]),
                                     (3, ["--seed", "3", "--m-max", "7", "--trials", "2"])])
def test_fuzz_catches_torsion_that_the_tables_of_both_pipelines_share(monkeypatch, capsys,
                                                                      p, argv):
    real = linalg.merge_torsion

    def one_more_factor(orders):
        # every group with torsion gains Z/p in the invariants of both
        # pipelines, so their tables still agree; only F_p sees it
        return real(orders) + (p,) if orders else ()

    monkeypatch.setattr(linalg, "merge_torsion", one_more_factor)
    code, out, _ = run(["fuzz", *argv], capsys)
    assert code == 2
    assert f"trial 1 (rp2): VIOLATION: cohomology over F_{p} disagrees with the universal " \
           "coefficient theorem at bidegree (-3, 12)" in out


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


def test_fuzz_catches_koszul_double_cohomology_over_f3_that_disagrees(monkeypatch, capsys):
    real = koszul.KoszulFieldAlgebra.hh_dims

    def drop_a_bidegree(alg):
        dims = real(alg)
        del dims[min(dims)]
        return dims

    monkeypatch.setattr(koszul.KoszulFieldAlgebra, "hh_dims", drop_a_bidegree)
    code, out, _ = run(["fuzz", "--seed", "1", "--trials", "1"], capsys)
    assert code == 2
    assert "trial 1 (rp2): VIOLATION: double cohomology over F_3 disagrees between " \
           "pipelines at bidegree (0, 0)" in out


def test_fuzz_catches_double_homology_over_f3_that_disagrees(monkeypatch, capsys):
    real = hochster.double_field

    def extra_homology_class(k, field, side="cohomology"):
        dims = real(k, field, side)
        if (field, side) == (3, "homology"):
            dims[(0, 0)] += 1
        return dims

    monkeypatch.setattr(hochster, "double_field", extra_homology_class)
    code, out, _ = run(["fuzz", "--seed", "1", "--trials", "1"], capsys)
    assert code == 2
    assert "trial 1 (rp2): VIOLATION: double homology and double cohomology over F_3 " \
           "disagree at bidegree (0, 0)" in out


def test_fuzz_catches_tables_that_change_under_relabelling(monkeypatch, capsys):
    # a relabelling that returns another complex: H and HH change
    monkeypatch.setattr(SimplicialComplex, "relabeled", lambda k, perm: complexes.cycle(k.m))
    code, out, _ = run(["fuzz", "--seed", "1", "--trials", "1"], capsys)
    assert code == 2
    assert "trial 1 (rp2): VIOLATION: cohomology of the copy relabelled by [" in out
    assert "] disagrees with k at bidegree" in out


def test_the_strand_euler_guard_compares_h_with_hh():
    k = complexes.rp2_minimal()
    dd = hochster.double_cohomology(k)
    h3 = hochster.hochster_field(k, 3)
    hh3 = hochster.double_field(h3, 3)
    cli._check_strand_euler(dd.decomposition.invariants(), dd.invariants(), "Z")
    cli._check_strand_euler(h3.dims, hh3, "F_3")
    # torsion does not count; one more class at (-2, 6), on the strand
    # p = 3 - 2 - 1 = 0, does
    h, hh = dd.decomposition.invariants(), dd.invariants()
    rank, torsion = hh.get((2, 3), (0, ()))
    cli._check_strand_euler(h, {**hh, (2, 3): (rank, torsion + (2,))}, "Z")
    with pytest.raises(VerificationError, match="over Z have different Euler "
                                                "characteristics on the strand p = 0"):
        cli._check_strand_euler(h, {**hh, (2, 3): (rank + 1, torsion)}, "Z")
    with pytest.raises(VerificationError, match="over F_3 .* strand p = -1"):
        cli._check_strand_euler(h3.dims, {**hh3, (0, 0): 0}, "F_3")


def test_fuzz_catches_a_class_that_both_double_cohomology_pipelines_lose(monkeypatch, capsys):
    real = linalg.graded_homology

    def drop_the_first_bidegree(morphisms, step, *homology_at):
        # the HH^* step of both pipelines, whose step is (-1, -1): their HH
        # tables still agree; the Koszul H step, (-1, 0), is left alone
        groups = real(morphisms, step, *homology_at)
        if step == (-1, -1):
            del groups[min(groups)]
        return groups

    monkeypatch.setattr(hochster, "graded_homology", drop_the_first_bidegree)
    monkeypatch.setattr(koszul, "graded_homology", drop_the_first_bidegree)
    code, out, _ = run(["fuzz", "--seed", "1", "--trials", "1"], capsys)
    assert code == 2
    assert "trial 1 (rp2): VIOLATION: H and HH over Z have different Euler " \
           "characteristics on the strand p = -1" in out


def test_fuzz_builds_r_of_k_once_per_trial(monkeypatch):
    built = []
    real = koszul.RComplex.__init__

    def record(rc, k):
        built.append(k)
        real(rc, k)

    monkeypatch.setattr(koszul.RComplex, "__init__", record)
    cli._fuzz_one(complexes.cycle(6), False, random.Random(1))
    assert built == [complexes.cycle(6)]


@pytest.mark.parametrize("coeff", [[], ["--coeff", "Q"], ["--coeff", "Fp", "--p", "3"]])
def test_verify_names_the_bidegree_of_a_descended_dprime_fault_over_every_ring(
        monkeypatch, capsys, coeff):
    real = koszul._descend_dprime

    def with_a_diagonal(kc):
        out = {}
        for b, f in real(kc).items():
            diagonal = [(i, i, 1) for i in range(min(f.matrix.shape))]
            out[b] = linalg.GroupMorphism(
                f.source, f.target, f.matrix + linalg.IntMatrix.from_entries(*f.matrix.shape,
                                                                            diagonal))
        return out

    monkeypatch.setattr(koszul, "_descend_dprime", with_a_diagonal)
    code, out, err = run(["compute", "--gen", "two_squares", "--verify", *coeff], capsys)
    assert code == 2
    assert out == ""
    assert err.endswith("verification failure: descended d' does not square to zero at "
                        "bidegree (-3, 8)\n")


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
