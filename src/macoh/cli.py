"""Command-line front end for the bigraded cohomology pipelines.

Verbs:

  compute       parse or generate a complex and print its bigraded tables
  verify-paper  run the stored reference checklist
  fuzz          random complexes, both pipelines plus bicomplex identities
  generate      write a named complex in the plain text input format

Exit codes: 0 success, 1 input error, 2 verification failure.  Tables are
sorted by (l, k) with bidegrees rendered as "(-k, 2l)", and stdout is
byte-identical across runs for identical inputs; timing goes to stderr.
"""

import argparse
import json
import sys
import time
from collections import Counter

from . import complexes
from . import hochster
from . import koszul
from . import verification
from .complexes import ComplexError, SimplicialComplex
from .errors import VerificationError
from .linalg import LinalgError, is_prime

VERTEX_WARN_THRESHOLD = 16

_FIXED_GENERATORS = {
    "rp2": complexes.rp2_minimal,
    "square_edge": complexes.square_edge,
    "two_triangles": complexes.two_triangles,
    "two_squares": complexes.two_squares,
}

_PARAMETRIC_GENERATORS = {
    "simplex": complexes.simplex,
    "boundary": complexes.boundary_simplex,
    "cycle": complexes.cycle,
    "points": complexes.disjoint_points,
}


def parse_generator(spec):
    """Build a complex from a generator spec like "cycle:5" or "rp2"."""
    name, sep, arg = spec.partition(":")
    if name in _FIXED_GENERATORS:
        if sep:
            raise ComplexError(f"generator {name!r} takes no parameter")
        return _FIXED_GENERATORS[name]()
    if name in _PARAMETRIC_GENERATORS:
        if not sep:
            raise ComplexError(f"generator {name!r} needs a vertex count, e.g. {name}:5")
        try:
            m = int(arg)
        except ValueError:
            raise ComplexError(f"generator parameter must be an integer, got {arg!r}")
        return _PARAMETRIC_GENERATORS[name](m)
    known = sorted(_FIXED_GENERATORS) + sorted(f"{n}:m" for n in _PARAMETRIC_GENERATORS)
    raise ComplexError(f"unknown generator {name!r}; known: {', '.join(known)}")


def _load_complex(args):
    if args.gen is not None:
        return parse_generator(args.gen), args.gen
    if args.file == "-":
        text = sys.stdin.read()
        source = "<stdin>"
    else:
        try:
            with open(args.file, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ComplexError(f"cannot read {args.file}: {exc}")
        source = args.file
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return SimplicialComplex.from_json(text), source
    return SimplicialComplex.from_text(text), source


def _parse_field(args):
    """Returns (label, field token): None for Z, "Q", or a prime int."""
    if args.coeff != "Fp":
        if args.p is not None:
            raise ComplexError("--p only applies to --coeff Fp")
        return args.coeff, None if args.coeff == "Z" else "Q"
    p = args.p
    if p is None:
        raise ComplexError("--coeff Fp requires --p <prime>")
    if p >= 1 << 64:
        raise ComplexError(f"--p must be below 2**64, got {p}")
    if not is_prime(p):
        raise ComplexError(f"--p must be prime, got {p}")
    return f"F{p}", p


def _rows(table):
    """Sorted display rows from a dict (k, l) -> (rank, torsion) or dim."""
    rows = []
    for kk, l in sorted(table, key=lambda b: (b[1], b[0])):
        value = table[(kk, l)]
        rank, torsion = value if isinstance(value, tuple) else (value, ())
        if rank == 0 and not torsion:
            continue
        rows.append({"k": -kk, "l": 2 * l, "rank": rank, "torsion": list(torsion)})
    return rows


def _euler_from_rows(rows):
    return sum((-1) ** (r["k"] & 1) * r["rank"] for r in rows)


def _print_rows(title, rows, out):
    out(f"{title}:")
    if not rows:
        out("  (zero in every bidegree)")
        return
    labels = [f"({r['k']}, {r['l']})" for r in rows]
    width = max(len(s) for s in labels)
    for label, r in zip(labels, rows):
        torsion = ", ".join(str(t) for t in r["torsion"]) if r["torsion"] else "-"
        out(f"  {label:<{width}}  rank {r['rank']:<4} torsion {torsion}")


def _input_summary(k, source, coeff_label):
    return {
        "m": k.m,
        "maximal_faces": [list(complexes.vertices_of(f)) for f in k.maximal_faces],
        "facets": len(k.maximal_faces),
        "simplex": k.is_simplex(),
        "flag": k.is_flag(),
        "chordal_skeleton": k.is_chordal_skeleton()[0],
        "wedge_decomposable": k.is_wedge_decomposable() is not None,
        "coefficients": coeff_label,
        "source": source,
    }


def _yesno(flag):
    return "yes" if flag else "no"


def _double_tables(k, field, side):
    """(decomposition, HH invariants) on one side over the ring of field
    (None for Z); over a field each invariant is (dimension, ())."""
    hd = hochster.hochster_field(k, field, side=side)
    double = hochster.double_cohomology if side == "cohomology" else hochster.double_homology
    return hd, double(hd).invariants()


def cmd_compute(args):
    k, source = _load_complex(args)
    if k.m > VERTEX_WARN_THRESHOLD:
        print(f"warning: m = {k.m} vertices; subset enumeration is exponential",
              file=sys.stderr)
    coeff_label, field = _parse_field(args)
    what = args.what
    need_h = what in ("H", "all")
    need_hh = what in ("HH", "all")
    need_hhhom = what in ("HHhom", "all")
    started = time.monotonic()
    summary = _input_summary(k, source, coeff_label)  # the predicates, once for both formats

    h_rows = hh_rows = hhhom_rows = None
    euler = None
    agreement = None
    hd = hh = None
    if need_hh or args.verify:
        hd, hh = _double_tables(k, field, "cohomology")
    elif need_h:
        hd = hochster.hochster_field(k, field)
    if need_h:
        h_rows = _rows(hd.invariants())
    if need_hh:
        hh_rows = _rows(hh)
        euler = _euler_from_rows(hh_rows)
    if need_hhhom:
        hhhom_rows = _rows(_double_tables(k, field, "homology")[1])
    if args.verify:
        _check_strand_euler(hd.invariants(), hh, coeff_label)
        rc = koszul.RComplex(k)
        rc.check_identities()
        hhk = koszul.hh_via_koszul(rc, field)
        agreement = (_rows(hhk.kc.invariants()) == _rows(hd.invariants())
                     and _rows(hhk.invariants()) == _rows(hh))
    elapsed = time.monotonic() - started

    if args.json:
        report = {
            "input": summary,
            "H": h_rows,
            "HH": hh_rows,
            "HH_hom": hhhom_rows,
            "euler": euler,
            "agreement": agreement,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        out = print
        out(f"complex: m={k.m}, facets={len(k.maximal_faces)} ({source})")
        out(f"predicates: simplex={_yesno(summary['simplex'])}"
            f" flag={_yesno(summary['flag'])}"
            f" chordal={_yesno(summary['chordal_skeleton'])}"
            f" wedge-decomposable={_yesno(summary['wedge_decomposable'])}")
        out(f"coefficients: {coeff_label}")
        if h_rows is not None:
            _print_rows("H (bigraded cohomology)", h_rows, out)
        if hh_rows is not None:
            _print_rows("HH (double cohomology)", hh_rows, out)
            out(f"euler characteristic of HH: {euler}")
        if hhhom_rows is not None:
            _print_rows("HH_* (double homology)", hhhom_rows, out)
        if agreement is not None:
            out(f"pipeline agreement: {_yesno(agreement)}")
    print(f"elapsed {elapsed:.2f}s", file=sys.stderr)
    if agreement is False:
        print("error: the two pipelines disagree", file=sys.stderr)
        return 2
    return 0


def cmd_verify_paper(args):
    if args.only and not any(args.only in name for name, _ in verification.CHECKS):
        raise ComplexError(f"no checks match {args.only!r}")
    failures = verification.run_checks(only=args.only)
    return 2 if failures else 0


def _check_strand_euler(h, hh, ring):
    """d' keeps the strand p = l - k - 1 and moves l by one, so on each
    strand H and HH have the same alternating sum of the ranks over l."""
    sums = Counter()
    for sign, table in ((1, h), (-1, hh)):
        for r in _rows(table):  # displayed bidegrees (-k, 2l)
            sums[r["k"] + r["l"] // 2 - 1] += sign * (-1) ** (r["l"] // 2) * r["rank"]
    if any(sums.values()):
        raise VerificationError(f"H and HH over {ring} have different Euler characteristics "
                                f"on the strand p = {min(p for p, s in sums.items() if s)}")


def _fuzz_one(k, inject_sign_fault, rng):
    """Both pipelines, the bicomplex identities, HH_* against HH^*, the
    field paths against the integral tables (HH over Q, and H over F_2 and
    F_3 by universal coefficients), field HH over F_3 against Koszul field
    HH and field HH_*, the integral and F_3 tables of a copy of k
    relabelled by a permutation drawn from rng against those of k, and H
    against HH per strand over Z and F_3; raises on violation.  The shared
    homology_of_pair and its divisor path are checked by the field checks,
    the relabelled copy, the orders of built representatives, and the
    groups that the sweep reads off a smaller subset: when d' builds one of
    those, a fault that changes homotopy-equivalent complexes differently
    gives other orders, and LinalgError."""
    rc = koszul.RComplex(k)
    rc.check_identities()
    dd = hochster.double_cohomology(k, sign_fault=inject_sign_fault)
    hhk = koszul.hh_via_koszul(rc)
    if hhk.kc.invariants() != dd.decomposition.invariants():
        raise VerificationError("cohomology tables disagree between pipelines")
    if hhk.invariants() != dd.invariants():
        raise VerificationError("double cohomology tables disagree between pipelines")
    _check_strand_euler(dd.decomposition.invariants(), dd.invariants(), "Z")
    coh = {b: rank for b, (rank, _) in dd.invariants().items()}
    hom = {b: rank for b, (rank, _) in hochster.double_homology(k).invariants().items()}
    # universal coefficients: H^n(F_p) = H^n (x) F_p + Tor(H^{n+1}, F_p), and
    # H^{n+1} at the same l is the bidegree (k - 1, l)
    field_h = {p: hochster.hochster_field(k, p) for p in (2, 3)}
    uct = {p: Counter() for p in field_h}
    for (kk, l), (rank, torsion) in dd.decomposition.invariants().items():
        for p, dims in uct.items():
            divisible = sum(1 for d in torsion if d % p == 0)
            dims[(kk, l)] += rank + divisible
            dims[(kk + 1, l)] += divisible
    hh3 = hochster.double_field(field_h[3], 3)
    labels = list(k.vertices())
    rng.shuffle(labels)
    copy = k.relabeled(dict(zip(k.vertices(), labels)))
    copy_dd = hochster.double_cohomology(copy)
    copy_h3 = hochster.hochster_field(copy, 3)
    relabelled = f"of the copy relabelled by {labels} disagrees with k"
    checks = (
        # HH_* and HH^* tensored with Q are dual vector spaces
        (hom, coh, "free ranks of double homology and double cohomology disagree"),
        (hochster.double_field(k, "Q"), coh,
         "double cohomology over Q disagrees with the free ranks over Z"),
        *((field_h[p].dims, uct[p],
           f"cohomology over F_{p} disagrees with the universal coefficient theorem")
          for p in field_h),
        (koszul.KoszulFieldAlgebra(rc, 3).hh_dims(), hh3,
         "double cohomology over F_3 disagrees between pipelines"),
        # HH_* and HH^* over a field are dual
        (hochster.double_field(k, 3, "homology"), hh3,
         "double homology and double cohomology over F_3 disagree"),
        # bigraded tables do not depend on the vertex labels
        (copy_dd.decomposition.invariants(), dd.decomposition.invariants(),
         f"cohomology {relabelled}"),
        (copy_dd.invariants(), dd.invariants(), f"double cohomology {relabelled}"),
        (copy_h3.dims, field_h[3].dims, f"cohomology over F_3 {relabelled}"),
        (hochster.double_field(copy_h3, 3), hh3, f"double cohomology over F_3 {relabelled}"),
    )
    for got, want, message in checks:
        for kk, l in sorted(set(got) | set(want)):
            if got.get((kk, l), 0) != want.get((kk, l), 0):
                raise VerificationError(f"{message} at bidegree ({-kk}, {2 * l})")
    _check_strand_euler(field_h[3].dims, hh3, "F_3")


def cmd_fuzz(args):
    import random

    if args.m_max < 1 or args.m_max > complexes.MAX_VERTICES:
        raise ComplexError(f"--m-max must be between 1 and {complexes.MAX_VERTICES}")
    if args.trials < 0:
        raise ComplexError(f"--trials must be nonnegative, got {args.trials}")
    rng = random.Random(args.seed)
    plan = [("rp2", complexes.rp2_minimal()),
            ("two_squares", complexes.two_squares())][:args.trials]
    while len(plan) < args.trials:
        m = rng.randint(1, args.m_max)
        plan.append((f"random m={m}", complexes.random_complex(rng, m)))
    for index, (label, k) in enumerate(plan, 1):
        try:
            _fuzz_one(k, args.inject_sign_fault, rng)
        except (VerificationError, LinalgError) as exc:
            print(f"trial {index} ({label}): VIOLATION: {exc}")
            print("offending complex:")
            print(k.to_json())
            return 2
        print(f"trial {index} ({label}): m={k.m} facets={len(k.maximal_faces)} ok")
    print(f"{len(plan)} trials, 0 violations")
    if args.inject_sign_fault and plan:
        print("error: injected sign fault was not detected", file=sys.stderr)
        return 1
    return 0


def cmd_generate(args):
    k = parse_generator(args.spec)
    text = k.to_text()
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ComplexError(f"cannot write {args.out}: {exc}")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we reserve 2 for
    verification failures, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="macoh",
                     description="Bigraded and double cohomology of moment-angle "
                                 "complexes, computed two independent ways.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    compute = sub.add_parser("compute", help="compute bigraded tables for one complex")
    source = compute.add_mutually_exclusive_group(required=True)
    source.add_argument("--gen", help="generator spec, e.g. cycle:5, boundary:4, rp2")
    source.add_argument("--file", help="complex description file ('-' for stdin)")
    compute.add_argument("--what", choices=["H", "HH", "HHhom", "all"], default="all",
                         help="which tables to print (default all)")
    compute.add_argument("--coeff", choices=["Z", "Q", "Fp"], default="Z",
                         help="coefficients (default Z)")
    compute.add_argument("--p", type=int, help="the prime for --coeff Fp")
    compute.add_argument("--verify", action="store_true",
                         help="run both pipelines, the bicomplex identity checks and "
                              "the check of H against HH per strand")
    compute.add_argument("--json", action="store_true", help="machine-readable output")
    compute.set_defaults(func=cmd_compute)

    verify = sub.add_parser("verify-paper", help="run the stored reference checklist")
    verify.add_argument("--only", help="run only checks whose name contains this string")
    verify.set_defaults(func=cmd_verify_paper)

    fuzz = sub.add_parser("fuzz", help="random complexes through both pipelines")
    fuzz.add_argument("--seed", type=int, default=1, help="seed of the random complexes")
    fuzz.add_argument("--m-max", type=int, default=6, dest="m_max",
                      help="most vertices of a random complex (default 6)")
    fuzz.add_argument("--trials", type=int, default=100,
                      help="number of complexes (default 100); trials 1 and 2 are always "
                           "rp2 and two_squares, whatever --m-max")
    fuzz.add_argument("--inject-sign-fault", action="store_true",
                      help="negative control: corrupt a sign and expect detection")
    fuzz.set_defaults(func=cmd_fuzz)

    generate = sub.add_parser("generate", help="emit a generated complex as text")
    generate.add_argument("spec", help="generator spec, e.g. cycle:5, simplex:3, rp2")
    generate.add_argument("--out", help="output path (default stdout)")
    generate.set_defaults(func=cmd_generate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ComplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (VerificationError, LinalgError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
