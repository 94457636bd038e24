"""Per-layer tracing of flagcones, applied from outside the library.

``Tracer`` is a context manager.  On entry it replaces the public
functions of each layer (charts, diffgeo, verify, hvcone, reps, exact,
roots) with timing wrappers, at every name that binds them: the library
imports functions by name across modules (``charts`` binds its ``reps``
builders, ``verify`` binds ``hvcone.remmert``, ``kodaira_embedding``
calls ``remmert`` as a global of ``hvcone``), so patching one module
attribute would miss the calls that go through another.  On exit it puts
every original back and checks that it did.

Spans nest.  A layer's self time is the time inside its spans minus the
time of the spans opened beneath them, so the self times of all layers
add up to the traced time.  Per-function times are inclusive.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from flagcones import charts, diffgeo, exact, hvcone, reps, roots, verify
from flagcones.charts import Chart, PotentialSpec
from flagcones.exact import QC

LAYERS = ("charts", "diffgeo", "verify", "hvcone", "reps", "exact", "roots")
CHART_KINDS = ("wedge", "quadric", "product")

# diffgeo functions that verify calls; each gets a time and a call count
DIFFGEO_REPORTED = ("ricci_form", "i_del_delbar", "ricci", "weyl_ricci", "metric_batch",
                    "kahler_form_batch", "grad_batch", "d_oneform", "d_twoform", "nabla_oneform",
                    "weyl_christoffel_batch", "_jacobian_of_field")
DIFFGEO_OTHER = ("wedge_one_two", "hessian_batch", "complex_hessian_batch", "ricci_form_batch",
                 "christoffel_batch", "christoffel", "complex_structure")
VERIFY_FNS = ("run_suite", "sample_points", "conformal_fields", "check_lck", "check_vaisman",
              "check_kahler_einstein_base", "check_cone_ricci_flat", "check_einstein_weyl",
              "check_embedding_consistency")
HVCONE_FNS = ("remmert", "remmert_norm_sq", "kodaira_embedding", "algebraic_residual",
              "plucker_residual", "quadric_residual", "determinant_residual",
              "casimir_quadric_residual", "gamma_canonicalize", "hopf_distance")
REPS_BUILDS = ("so_radical_basis", "outer_tensor", "wedge_module", "so_vector_module", "sl2_module")
REPS_OTHER = ("act", "derivation_matrix", "casimir_matrix", "casimir_tensor_matrix")
EXACT_FNS = ("qc_mat", "mat_add", "mat_sub", "mat_scale", "mat_mul", "mat_vec", "mat_comm",
             "mat_dagger", "mat_trace", "mat_kron", "solve", "mat_inv", "frac_solve",
             "to_complex_matrix", "to_complex_vector")
ROOTS_FNS = ("build_root_system", "flag")
QC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


def _points(args) -> int:
    shape = np.shape(args[0])
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    """Patches the layers on entry, restores them on exit, keeps the tallies."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self._open = []                      # child time of each open span
        self._depth = defaultdict(int)       # open spans per outermost-only group
        self._builds_open = 0
        self._saved = []                     # (owner, attribute, original)
        self.missing = []                    # traced names the library no longer defines

    # -- spans ---------------------------------------------------------------

    def _span(self, layer, name, fn, group=None, note=None):
        def traced(*args, **kwargs):
            child = [0.0]
            self._open.append(child)
            if group:
                self._depth[group] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += dur
                self.self_s[layer] += dur - child[0]
                self.time[name] += dur
                self.calls[name] += 1
                if group:
                    self._depth[group] -= 1
                    if not self._depth[group]:
                        self.time[group] += dur
                if note:
                    note(args, dur)

        return functools.wraps(fn)(traced)

    def _module_build(self, name, fn):
        """A reps builder: counts the calls that build, not the cache hits."""
        info = getattr(fn, "cache_info", None)
        traced = self._span("reps", name, fn)

        def build(*args, **kwargs):
            misses = info().misses if info else None
            self._builds_open += 1
            start = perf_counter()
            try:
                return traced(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self._builds_open -= 1
                if info is None or info().misses > misses:
                    self.count["reps.module_builds"] += 1
                    if not self._builds_open:
                        self.time["reps.module_build"] += dur

        return functools.wraps(fn)(build)

    def _potential(self, make):
        """Wrap a PotentialSpec method so the closure it returns is a span."""
        def method(spec):
            kind = spec.chart.kind

            def note(args, dur):
                self.count[f"points.{kind}"] += _points(args)
                self.time[f"potential.{kind}"] += dur

            return self._span("charts", "charts.potential", make(spec), note=note)

        return functools.wraps(make)(method)

    # -- patching ------------------------------------------------------------

    def _patch(self, original, replacement):
        """Rebind ``original`` at every flagcones module name that holds it."""
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "flagcones":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_attr(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _present(self, owner, names):
        """The names ``owner`` still defines; the others are recorded as missing.

        A library change may rename a traced function; its metrics then
        read 0 and the run lists it, instead of the traced run failing.
        """
        table = vars(owner)
        self.missing += [f"{owner.__name__}.{n}" for n in names if n not in table]
        return [n for n in names if n in table]

    def _install(self):
        for layer, module, names in (("diffgeo", diffgeo, DIFFGEO_REPORTED + DIFFGEO_OTHER),
                                     ("verify", verify, VERIFY_FNS), ("hvcone", hvcone, HVCONE_FNS),
                                     ("reps", reps, REPS_OTHER), ("exact", exact, EXACT_FNS),
                                     ("roots", roots, ROOTS_FNS)):
            for fn in self._present(module, names):
                note = self._count_samples if fn.startswith("check_") else None
                original = getattr(module, fn)
                self._patch(original, self._span(layer, f"{layer}.{fn}", original, note=note))
        for fn in self._present(reps, REPS_BUILDS):
            self._patch(getattr(reps, fn), self._module_build(f"reps.{fn}", getattr(reps, fn)))
        for fn in self._present(charts, ("resolve_case", "make_spec")):
            original = getattr(charts, fn)
            self._patch(original, self._span("roots", f"roots.{fn}", original, group="roots.resolve"))
        for method in self._present(Chart, ("generic_h", "embedding_rep", "h_closed_exact")):
            self._patch_attr(Chart, method, self._span("charts", f"charts.{method}", Chart.__dict__[method]))
        for method in self._present(PotentialSpec, ("K1",)):
            self._patch_attr(PotentialSpec, method, self._span("charts", "charts.K1", PotentialSpec.__dict__[method]))
        for method in self._present(PotentialSpec, ("field", "log_field", "base_log_anticanonical")):
            self._patch_attr(PotentialSpec, method, self._potential(PotentialSpec.__dict__[method]))
        for op in self._present(QC, QC_OPS):
            self._patch_attr(QC, op, self._counted(QC.__dict__[op]))

    def __exit__(self, *exc):
        """Put every original back; raise if any name is still patched."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        leftover = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._saved
                    if (o.__dict__[a] if isinstance(o, type) else getattr(o, a)) is not orig]
        self._saved.clear()
        if leftover:
            raise RuntimeError(f"tracer left patched names behind: {leftover}")
        return False

    def _count_samples(self, args, dur):
        self.count["verify.samples"] += args[1].count

    def _counted(self, op):
        def counted(a, b):
            self.count["exact.qc_ops"] += 1
            return op(a, b)

        return counted

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far, as {name: (value, unit)}."""
        t, n, c = self.time, self.calls, self.count
        points = sum(c[f"points.{k}"] for k in CHART_KINDS)
        out = {
            "charts.potential_s": (t["charts.potential"], "s"),
            "charts.potential_points": (points, "count"),
            "charts.potential_calls": (n["charts.potential"], "count"),
        }
        for kind in CHART_KINDS:
            busy = t[f"potential.{kind}"]
            out[f"charts.points_per_s.{kind}"] = (c[f"points.{kind}"] / busy if busy else 0.0, "points/s")
        for fn in ("generic_h", "embedding_rep"):
            out[f"charts.{fn}_s"] = (t[f"charts.{fn}"], "s")
            out[f"charts.{fn}_calls"] = (n[f"charts.{fn}"], "count")
        for fn in DIFFGEO_REPORTED:
            out[f"diffgeo.{fn}_s"] = (t[f"diffgeo.{fn}"], "s")
            out[f"diffgeo.{fn}_calls"] = (n[f"diffgeo.{fn}"], "count")
        samples = c["verify.samples"]
        out["diffgeo.points_per_sample"] = (points / samples if samples else 0.0, "points/sample")
        out["verify.samples"] = (samples, "count")
        for fn in ("remmert", "kodaira_embedding", "algebraic_residual"):
            out[f"hvcone.{fn}_s"] = (t[f"hvcone.{fn}"], "s")
            out[f"hvcone.{fn}_calls"] = (n[f"hvcone.{fn}"], "count")
        out["reps.act_s"] = (t["reps.act"], "s")
        out["reps.act_calls"] = (n["reps.act"], "count")
        out["reps.module_builds"] = (c["reps.module_builds"], "count")
        out["reps.module_build_s"] = (t["reps.module_build"], "s")
        out["exact.qc_ops"] = (c["exact.qc_ops"], "count")
        out["roots.resolve_s"] = (t["roots.resolve"], "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out
