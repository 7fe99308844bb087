"""Per-layer tracing from outside the package.

The tracer replaces public functions and methods of macoh's modules with
wrappers that record a span (name, start, end, parent, job) per call and
count work at the same boundary.  ``hochster``, ``koszul`` and
``homology`` bind functions such as ``cohomology`` and
``homology_of_pair`` with ``from ... import``, so a function is replaced
under every name that refers to it in every loaded macoh module; methods
are replaced on their class.  ``uninstall`` puts every original back.

Spans are kept in flat arrays while the run lasts and written out at the
end.  A span's self time is its duration minus the time of its child
spans.  Time spent computing counters after a call is charged to no span,
so it shows only in the traced run's overhead.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

LAYERS = ("complexes", "homology", "linalg", "hochster", "koszul", "cli")


def _cells_nnz_bits(rows):
    cells = nnz = bits = 0
    for row in rows:
        cells += len(row)
        for x in row:
            if x:
                nnz += 1
                b = x.bit_length()
                if b > bits:
                    bits = b
    return cells, nnz, bits


class Tracer:
    """Spans and counters of one traced phase."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_time = {}
        self.total_time = {}
        self.calls = {}
        self.counts = {}
        self.maxima = {}
        self.sweeps = {}  # (m, maximal faces, support) -> number of sweeps
        self.job = -1
        self._stack = []  # [span id, time covered by children]
        self._patches = []

    # -- recording ----------------------------------------------------------

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key, value):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn, after=None):
        """Wrap fn so that each call records a span; after(tracer, args,
        result) runs once the span is closed and may add counters."""
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_job.append(tracer.job)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.span_start[sid] = start
                tracer.span_end[sid] = end
                tracer._close(name, end - start, frame[1])
            if after is not None:
                t0 = perf_counter()
                after(tracer, args, result)
                if stack:
                    stack[-1][1] += perf_counter() - t0
            return result

        return wrapper

    def _close(self, name, duration, children):
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - children
        self.total_time[name] = self.total_time.get(name, 0.0) + duration
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][1] += duration

    def counted(self, name, fn):
        """Wrap fn so that each call only bumps a call counter."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _replace_function(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self, mods):
        """Wrap the public entry points of every layer."""
        modules = [m for name, m in sys.modules.items()
                   if name == "macoh" or name.startswith("macoh.")]
        c, hm, la = mods.complexes, mods.homology, mods.linalg
        hs, kz, cli = mods.hochster, mods.koszul, mods.cli

        def function(name, fn, after=None):
            self._replace_function(modules, fn, self.span(name, fn, after))

        def method(name, cls, attr, after=None):
            self._replace_method(cls, attr, self.span(name, cls.__dict__[attr], after))

        sc = c.SimplicialComplex
        method("complexes.faces_within", sc, "faces_within")
        for attr in ("is_simplex", "is_flag", "is_chordal_skeleton",
                     "is_wedge_decomposable", "minimal_non_faces"):
            method("complexes.predicates", sc, attr)

        function("homology.reduced_complex", hm.reduced_complex)
        function("homology.cohomology", hm.cohomology)
        function("homology.cohomology", hm.homology)
        function("homology.induced_map", hm.induced_map)
        method("homology.field_cohomology", hm.FieldComplexCohomology, "__init__")

        function("linalg.smith_normal_form", la.smith_normal_form, _after_smith)
        function("linalg.homology_of_pair", la.homology_of_pair)
        self._replace_method(la.SmithSolver, "solve",
                             self.counted("linalg.solve", la.SmithSolver.__dict__["solve"]))
        method("linalg.matmul", la.IntMatrix, "__matmul__", _after_matmul)
        self._replace_method(la.IntMatrix, "mulvec",
                             self.counted("linalg.mulvec", la.IntMatrix.__dict__["mulvec"]))
        method("linalg.rref", la.FieldOps, "rref", _after_rref)

        for fn in (hs.hochster_cohomology, hs.hochster_homology, hs.hochster_field):
            function("hochster.sweep", fn, _after_sweep)
        function("hochster.d_prime", hs.d_prime, _after_d_prime)
        function("hochster.double", hs.double_cohomology)
        function("hochster.double", hs.double_homology)
        function("hochster.field_double", hs.double_field)

        method("koszul.rcomplex", kz.RComplex, "__init__", _after_rcomplex)
        method("koszul.check_identities", kz.RComplex, "check_identities")
        function("koszul.cohomology", kz.cohomology_via_koszul)
        function("koszul.hh", kz.hh_via_koszul)
        function("koszul.iso", kz.hochster_koszul_iso)
        method("koszul.field_algebra", kz.KoszulFieldAlgebra, "__init__")
        self._replace_method(kz.KoszulFieldAlgebra, "hh_product",
                             self.counted("koszul.hh_product",
                                          kz.KoszulFieldAlgebra.__dict__["hh_product"]))

        function("cli.main", cli.main)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def repeat_subcomplex_frac(self, complexes):
        """Share of swept subsets whose full subcomplex, relabelled
        order-preservingly, equals that of an earlier subset of the same sweep."""
        repeats = total = 0
        for (m, faces, support), times in self.sweeps.items():
            k = complexes.SimplicialComplex.from_maximal_faces(m, list(faces))
            seen = set()
            for mask in range(support + 1):
                if mask & ~support:
                    continue
                sub = k.full_subcomplex(mask)
                key = (sub.m, sub.maximal_faces)
                if key in seen:
                    repeats += times
                else:
                    seen.add(key)
                total += times
        return repeats / total if total else 0.0

    def layer_self_time(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.self_time.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += t
        return out

    def write_spans(self, path):
        """One line per span: id, parent id, job index, name, start and end
        in microseconds from the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,job,name,start_us,end_us\n")
            for sid in range(len(self.span_name)):
                out.write(f"{sid},{self.span_parent[sid]},{self.span_job[sid]},"
                          f"{self.names[self.span_name[sid]]},"
                          f"{(self.span_start[sid] - t0) * 1e6:.1f},"
                          f"{(self.span_end[sid] - t0) * 1e6:.1f}\n")


def _after_smith(tracer, args, dec):
    a = args[0]
    cells, nnz, bits = _cells_nnz_bits(a.rows)
    for transform in (dec.U, dec.V):
        bits = max(bits, _cells_nnz_bits(transform.rows)[2])
    tracer.add("linalg.smith_normal_form.cells", cells)
    tracer.add("linalg.smith_normal_form.nnz", nnz)
    tracer.add("linalg.smith_normal_form.zero_input", 0 if nnz else 1)
    tracer.add("linalg.smith_normal_form.inputs", 1)
    tracer.maximum("linalg.smith_normal_form.max_dim", max(a.nrows, a.ncols))
    tracer.maximum("linalg.smith_normal_form.max_entry_bits", bits)


def _after_matmul(tracer, args, _result):
    a, b = args
    tracer.add("linalg.matmul.cells", a.nrows * a.ncols + b.nrows * b.ncols)


def _after_rref(tracer, args, _result):
    m = args[1]
    tracer.add("linalg.rref.cells", len(m) * (len(m[0]) if m else 0))


def _after_sweep(tracer, args, decomposition):
    k, support = args[0], decomposition.support
    tracer.add("hochster.subsets", 1 << support.bit_count())
    key = (k.m, k.maximal_faces, support)
    tracer.sweeps[key] = tracer.sweeps.get(key, 0) + 1


def _after_d_prime(tracer, _args, morphisms):
    for mor in morphisms.values():
        mat = mor.matrix
        cells, nnz, _ = _cells_nnz_bits(mat.rows)
        tracer.add("hochster.d_prime.blocks", 1)
        tracer.add("hochster.d_prime.cells", cells)
        tracer.add("hochster.d_prime.nnz", nnz)
        tracer.maximum("hochster.d_prime.max_dim", max(mat.nrows, mat.ncols))


def _after_rcomplex(tracer, args, _result):
    rc = args[0]
    dims = [len(mons) for mons in rc.bidegrees.values()]
    tracer.add("koszul.monomials", sum(dims))
    tracer.maximum("koszul.max_block", max(dims, default=0))
