"""The benchmark's job lists: seeded inputs, calls into macoh, output checks.

A workload is a list of jobs.  Each job calls one public entry point of
macoh on one complex; the run loop times ``job.run()`` and, outside the
timed region, turns the raw result into a canonical JSON-able value with
``job.canon`` and checks it with ``job.check``.

Inputs come only from the seed: named complexes get random vertex
relabellings (their invariants do not depend on labels, so the stored
references hold for every seed), a new one in each pass out of a fixed
list of ``LABELLINGS``, so that a run averages over labellings that
make elimination cheaper or dearer; random complexes are drawn with
``complexes.random_complex`` until their work lies in a fixed band, so
that the total work of a workload varies little from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

WORKLOADS = ("h-sweep", "z-ladder", "field-ladder", "verify-fuzz")

# Relabellings of each named complex, used in turn, one per pass.
LABELLINGS = 8

# Random draws per workload: (vertex count, inclusive band of work(K), count).
# Bands sit near the middle of the distribution of random_complex at that m.
RANDOM_BANDS = {
    "h-sweep": (9, (4000, 4400), 2),
    "verify-fuzz": (6, (440, 500), 6),
}


@dataclass
class Job:
    """One timed call.  ``complex`` is the unrelabelled name ("cycle:8",
    "random9-1" for the first draw at m = 9), ``kind`` what is computed
    ("HH(Z)", "Koszul HH(Z)", ...) and ``ks`` the relabelled or drawn
    complexes it runs on, the next one on each call of ``run``."""

    complex: str
    kind: str
    ks: list
    compute: Callable[[object], object]
    canon: Callable[[object], object]
    check: Callable[[object, dict], str | None]
    calls: int = 0

    @property
    def name(self):
        return f"{self.complex} {self.kind}"

    @property
    def k(self):
        return self.ks[0]

    def run(self):
        k = self.ks[self.calls % len(self.ks)]
        self.calls += 1
        return self.compute(k)


def work(k):
    """Number of pairs (I, sigma) with sigma a face of K inside the subset I.

    This is the summed size of every cochain complex in the subset sweep
    and also dim R(K), so it tracks the cost of both pipelines.
    """
    return sum(1 << (k.m - f.bit_count()) for f in k.faces)


def table(invariants):
    """Canonical form of a bidegree table: sorted [k, l, rank, torsion]
    rows, trivial entries dropped.  Values are (rank, torsion) or a dimension."""
    rows = []
    for (kk, l), value in sorted(invariants.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        rank, torsion = value if isinstance(value, tuple) else (value, ())
        if rank or torsion:
            rows.append([kk, l, rank, list(torsion)])
    return rows


def euler_rows(k):
    """Per l, sum over subsets I with |I| = l of the reduced Euler
    characteristic of K_I, from face counts alone (no linear algebra)."""
    out = {}
    for face in k.faces:
        q = face.bit_count()
        sign = -1 if q % 2 == 0 else 1  # (-1)^(q-1); the empty face gives -1
        for l in range(q, k.m + 1):
            out[l] = out.get(l, 0) + sign * comb(k.m - q, l - q)
    return out


def euler_check(k, rows):
    """H^{-k,2l} is the sum of H~^{l-k-1}(K_I) over |I| = l, so the
    alternating rank sum in each row l must match euler_rows."""
    got = {}
    for kk, l, rank, _ in rows:
        got[l] = got.get(l, 0) + (-1) ** (l - kk - 1) * rank
    want = euler_rows(k)
    for l in set(got) | set(want):
        if got.get(l, 0) != want.get(l, 0):
            return (f"Euler characteristic of row l={l}: ranks give {got.get(l, 0)}, "
                    f"faces give {want.get(l, 0)}")
    return None


def q_rank(vectors):
    """Rank over Q of a few short integer or Fraction vectors."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            c = rows[i][col] / rows[rank][col]
            rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class Inputs:
    """Seeded inputs of one workload, built from the freshly imported package."""

    def __init__(self, mods, workload, seed):
        self.mods = mods
        self.rng = random.Random(f"{workload}/{seed}")

    def named(self, name, count=LABELLINGS):
        """A named complex under `count` random relabellings of its vertices."""
        c = self.mods.complexes
        if name.startswith("join "):
            left, right = (self.mods.cli.parse_generator(s) for s in name[5:].split("*"))
            k = c.join(left, right)
        else:
            k = self.mods.cli.parse_generator(name)
        out = []
        for _ in range(count):
            images = self.rng.sample(range(1, k.m + 1), k.m)
            out.append(k.relabeled(dict(zip(range(1, k.m + 1), images))))
        return out

    def random(self, workload):
        """The banded random draws of a workload, as (name, complex) pairs."""
        m, band, count = RANDOM_BANDS[workload]
        out = []
        while len(out) < count:
            k = self.mods.complexes.random_complex(self.rng, m)
            if band[0] <= work(k) <= band[1]:
                out.append((f"random{m}-{len(out) + 1}", k))
        return out


def _reference_check(reference, cname, kind):
    expected = reference.get(cname, {}).get(kind)

    def check(value, _results):
        if expected is None:
            return f"no stored reference for {cname} {kind}"
        if value != expected:
            return f"{cname} {kind} differs from the stored reference"
        return None

    return check


def _no_check(_value, _results):
    return None


def build_jobs(mods, workload, seed, reference, cli_dir):
    """The job list of a workload for a seed.  Writes the CLI input files
    into cli_dir.  Named complexes are checked against reference, random
    draws against a pipeline-independent invariant."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    inputs = Inputs(mods, workload, seed)
    h, kz = mods.hochster, mods.koszul
    jobs = []

    # Every compute looks its macoh function up when called, so that the
    # tracer's wrappers, installed after set-up, see the call.
    def add(cname, kind, ks, compute, canon, check=None):
        if check is None:
            check = _reference_check(reference, cname, kind)
        jobs.append(Job(cname, kind, ks, compute, canon, check))

    def integral_h(cname, ks, check=None):
        add(cname, "H(Z)", ks, lambda k: h.hochster_cohomology(k),
            lambda hd: table(hd.invariants()), check)

    def integral_hh(cname, ks, check=None):
        add(cname, "HH(Z)", ks, lambda k: h.double_cohomology(k),
            lambda dd: {"H": table(dd.decomposition.invariants()),
                        "HH": table(dd.invariants())}, check)

    def integral_hh_hom(cname, ks):
        add(cname, "HH_*(Z)", ks, lambda k: h.double_homology(k),
            lambda dd: {"H_*": table(dd.decomposition.invariants()),
                        "HH_*": table(dd.invariants())})

    def field_job(cname, ks, what, field):
        label = "Q" if field == "Q" else f"F{field}"
        if what == "H":
            add(cname, f"H({label})", ks, lambda k: h.hochster_field(k, field),
                lambda fh: table(fh.dims))
        else:
            add(cname, f"HH({label})", ks, lambda k: h.double_field(k, field), table)

    def cli_job(cname, k, extra):
        """A CLI call on one labelling, written to an input file at set-up."""
        path = cli_dir / f"{workload}-{cname.replace(':', '')}.json"
        path.write_text(k.to_json(), encoding="utf-8")
        argv = ["compute", "--file", str(path), "--json", *extra]
        kind = "cli " + " ".join(extra)

        def run(_k):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = mods.cli.main(argv)
            return code, out.getvalue()

        def canon(raw):
            code, text = raw
            report = json.loads(text)
            # "input" echoes the relabelled faces and the file path, so it is skipped
            sections = ("H", "HH", "HH_hom", "agreement")
            return {"exit": code, **{key: report[key] for key in sections}}

        add(cname, kind, [k], run, canon)

    if workload == "h-sweep":
        # The subset sweep: thousands of tiny Smith calls, one per subset and degree.
        for name in ("cycle:11", "points:9", "boundary:7", "join cycle:4*cycle:4"):
            integral_h(name, inputs.named(name))
        for cname, k in inputs.random("h-sweep"):
            integral_h(cname, [k], lambda rows, _r, k=k: euler_check(k, rows))

    elif workload == "z-ladder":
        # d' assembly and a few large Smith / homology_of_pair calls per bidegree.
        for name in ("cycle:8", "points:7", "boundary:7", "rp2", "join cycle:4*cycle:4"):
            integral_hh(name, inputs.named(name))
        for name in ("cycle:8", "rp2"):
            integral_hh_hom(name, inputs.named(name))
        cli_job("cycle:7", inputs.named("cycle:7", 1)[0], ["--what", "all"])

    elif workload == "field-ladder":
        # Field elimination (FieldOps.rref) over Q and F_2; no Smith calls.
        plan = (("cycle:8", (("H", "Q"), ("HH", "Q"), ("HH", 2))),
                ("points:6", (("HH", "Q"), ("HH", 2))),
                ("boundary:7", (("HH", "Q"), ("HH", 2))),
                ("rp2", (("HH", "Q"),)),
                ("join cycle:4*cycle:4", (("HH", 2),)))
        for name, kinds in plan:
            ks = inputs.named(name)
            for what, field in kinds:
                field_job(name, ks, what, field)

    else:  # verify-fuzz
        # The Koszul bicomplex R(K): identities, cohomology, descended d', the
        # signed bijection and products, on inputs with no symmetry.
        named = [(name, inputs.named(name)) for name in ("rp2", "two_squares")]
        drawn = [(cname, [k]) for cname, k in inputs.random("verify-fuzz")]
        for cname, ks in named + drawn:
            is_named = not cname.startswith("random")
            check = None if is_named else _no_check  # draws: agreement check only
            add(cname, "identities", ks, lambda k: kz.RComplex(k).check_identities(),
                lambda ok: ok, check)
            integral_hh(cname, ks, check)
            add(cname, "Koszul HH(Z)", ks, lambda k: kz.hh_via_koszul(k),
                lambda kd: {"H": table(kd.kc.invariants()), "HH": table(kd.invariants())},
                _agreement_check(reference, cname, is_named))
        cname, [k] = drawn[0]
        add(cname, "iso", [k], lambda k: kz.hochster_koszul_iso(k),
            lambda iso: sum(mat.ncols for mat in iso.values()),
            lambda dim, _r: None if dim == work(k) else
            f"the bijection covers {dim} monomials, dim R(K) is {work(k)}")
        add("cycle:5", "hh_product(Q)", inputs.named("cycle:5"),
            lambda k: _all_products(kz, k), _product_table)
        cli_job("cycle:6", inputs.named("cycle:6", 1)[0], ["--verify"])
    return jobs


def _agreement_check(reference, cname, is_named):
    """Koszul HH must agree with the Hochster HH(Z) job of the same pass;
    named complexes must also match the stored reference."""
    stored = _reference_check(reference, cname, "Koszul HH(Z)")

    def check(value, results):
        if is_named:
            problem = stored(value, results)
            if problem:
                return problem
        hochster = results.get(f"{cname} HH(Z)")
        if hochster is None:
            return f"{cname}: no Hochster HH(Z) result to compare with"
        if hochster != value:
            return f"{cname}: Hochster and Koszul pipelines disagree"
        return None

    return check


def _all_products(kz, k):
    """KoszulFieldAlgebra over Q and hh_product over all generator pairs."""
    alg = kz.KoszulFieldAlgebra(k, "Q")
    gens = [(b, i) for b, dim in sorted(alg.hh_dims().items()) for i in range(dim)]
    products = [alg.hh_product(b1, i, b2, j) for b1, i in gens for b2, j in gens]
    return alg, products


def _product_table(raw):
    """Label-independent summary: HH dimensions and, per target bidegree,
    the rank of the span of all pairwise products."""
    alg, products = raw
    spans = {}
    for target, coords in products:
        if coords:
            spans.setdefault(target, []).append(coords)
    return {"HH": table(alg.hh_dims()),
            "products": table({b: q_rank(vs) for b, vs in spans.items()})}
