"""Outside-in tracer: wraps public functions of each dunklcms module.

``install`` replaces each boundary below with a timing wrapper and rebinds
every module attribute that holds the original function, including names
re-imported into other modules (``delta``/``partial`` in ``dunkl_infinity``
and ``finite_cms``), the package namespace and the benchmark's own modules.

Arithmetic boundaries are called millions of times, so they are aggregated
per (request, boundary): calls, self time (the span minus its wrapped
children), total time (outermost activations only, so recursion is not
counted twice) and boundary-specific extras. Full spans with parents are kept
only for the coarse boundaries: requests, checks, ``cli.run`` and
``ordered_map``.

Calls made in ``ordered_map`` worker processes are counted in the worker and
merged into the parent's request, item by item; the span of ``ordered_map``
itself is the time the parent waits, pool start included.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

CALLS, SELF, TOTAL, HITS, MISS_S, PEAK, ITEMS = range(7)


def _gcd_nontrivial(st, out, elapsed):
    if not out.is_const():
        st[HITS] += 1


def _den_degree(st, out, elapsed):
    degree = getattr(getattr(out, "den", None), "total_degree", None)
    d = degree() if degree is not None else 0
    if d > st[PEAK]:
        st[PEAK] = d


def _division(st, out, elapsed):
    if out is None:
        st[MISS_S] += elapsed
    else:
        st[HITS] += 1


def _sum_terms(st, out, elapsed):
    n = len(out.num.terms)
    if n > st[PEAK]:
        st[PEAK] = n


#: (boundary name, module, attribute path, observer, keep full spans)
BOUNDARIES = [
    ("coeffs.ParamPoly.mul", "coeffs", "ParamPoly.__mul__", None, False),
    ("coeffs.ParamPoly.add", "coeffs", "ParamPoly.__add__", None, False),
    ("coeffs.ParamRatio.add", "coeffs", "ParamRatio.__add__", _den_degree, False),
    ("coeffs.ParamRatio.mul", "coeffs", "ParamRatio.__mul__", _den_degree, False),
    ("coeffs.poly_gcd", "coeffs", "poly_gcd", _gcd_nontrivial, False),
    ("powersums.partial", "powersums", "partial", None, False),
    ("powersums.delta", "powersums", "delta", None, False),
    ("powersums.reflect", "powersums", "reflect", None, False),
    ("powersums.project_E", "powersums", "project_E", None, False),
    ("powersums.LambdaXElem.mul", "powersums", "LambdaXElem.__mul__", None, False),
    ("dunkl_infinity.InfDunkl.apply", "dunkl_infinity", "InfDunkl.apply", None, False),
    ("dunkl_infinity.InfDunkl.integral", "dunkl_infinity", "InfDunkl.integral", None, False),
    ("dunkl_infinity.apply_closed_form_L2", "dunkl_infinity", "apply_closed_form_L2", None, False),
    ("dunkl_infinity.commutator_on_basis", "dunkl_infinity", "commutator_on_basis", None, True),
    ("finite_cms.MultiPoly.mul", "finite_cms", "MultiPoly.__mul__", None, False),
    ("finite_cms.MultiPoly.div_or_none", "finite_cms", "MultiPoly.div_or_none", _division, False),
    ("finite_cms.finite_dunkl", "finite_cms", "finite_dunkl", None, False),
    ("finite_cms.Hom.apply", "finite_cms", "Hom.apply", None, False),
    ("finite_cms.heckman_integral", "finite_cms", "heckman_integral", None, False),
    ("finite_cms.deformed_integral", "finite_cms", "deformed_integral", None, False),
    ("finite_cms.diagram_check", "finite_cms", "diagram_check", None, True),
    ("weyl.WeylOp.compose", "weyl", "WeylOp.compose", None, False),
    ("weyl.WeylOp.apply", "weyl", "WeylOp.apply", None, False),
    ("weyl.RatFun.sum", "weyl", "RatFun.sum", _sum_terms, False),
    ("weyl.RatFun.mul", "weyl", "RatFun.__mul__", None, False),
    ("weyl.RatFun.diff", "weyl", "RatFun.diff", None, False),
    ("weyl.moser_L", "weyl", "moser_L", None, False),
    ("weyl.hamiltonian", "weyl", "hamiltonian", None, False),
    ("weyl.moser_integral", "weyl", "moser_integral", None, False),
    ("weyl.lax_check", "weyl", "lax_check", None, True),
    ("weyl.commute_check", "weyl", "commute_check", None, True),
    ("weyl.integral_vs_hamiltonian", "weyl", "integral_vs_hamiltonian", None, True),
    ("_parallel.ordered_map", "_parallel", "ordered_map", None, True),
    ("cli.run", "cli", "run", None, True),
]

#: The per-layer metrics: (metric, boundary, field, unit). ``hit_ratio`` and
#: ``nontrivial_ratio`` are hits over calls, 0 when there were no calls.
#: Metric names start with a letter, so ``_parallel`` reports as ``parallel``.
METRICS = []
for _b, _fields in [
    ("coeffs.ParamPoly.mul", "calls self_s"),
    ("coeffs.ParamPoly.add", "calls self_s"),
    ("coeffs.ParamRatio.add", "calls self_s"),
    ("coeffs.ParamRatio.mul", "calls self_s"),
    ("coeffs.poly_gcd", "calls self_s nontrivial_ratio"),
    ("powersums.partial", "calls self_s"),
    ("powersums.delta", "calls self_s"),
    ("powersums.reflect", "calls self_s"),
    ("powersums.project_E", "calls self_s"),
    ("powersums.LambdaXElem.mul", "calls self_s"),
    ("dunkl_infinity.InfDunkl.apply", "calls self_s total_s"),
    ("dunkl_infinity.InfDunkl.integral", "total_s"),
    ("dunkl_infinity.apply_closed_form_L2", "total_s"),
    ("finite_cms.MultiPoly.mul", "calls self_s"),
    ("finite_cms.MultiPoly.div_or_none", "calls self_s hit_ratio miss_s"),
    ("finite_cms.finite_dunkl", "calls total_s"),
    ("finite_cms.Hom.apply", "calls total_s"),
    ("finite_cms.heckman_integral", "calls total_s"),
    ("finite_cms.deformed_integral", "calls total_s"),
    ("weyl.WeylOp.compose", "calls self_s total_s"),
    ("weyl.RatFun.sum", "calls self_s total_s peak_terms"),
    ("weyl.RatFun.mul", "total_s"),
    ("weyl.moser_L", "total_s"),
    ("weyl.hamiltonian", "total_s"),
    ("weyl.moser_integral", "total_s"),
    ("weyl.WeylOp.apply", "calls total_s"),
    ("weyl.RatFun.diff", "calls total_s"),
    ("_parallel.ordered_map", "calls items total_s"),
    ("cli.run", "calls self_s"),
]:
    for _f in _fields.split():
        _unit = {"calls": "count", "items": "count", "peak_terms": "count"}.get(
            _f, "s" if _f.endswith("_s") else "ratio")
        METRICS.append(("%s.%s" % (_b.lstrip("_"), _f), _b, _f, _unit))
METRICS.append(("coeffs.ParamRatio.peak_den_degree", "coeffs.ParamRatio", "peak_den_degree", "degree"))

_ACTIVE = None  # the installed tracer, reached by worker-side calls


def _new_stat():
    return [0, 0.0, 0.0, 0, 0.0, 0, 0]


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.request = None
        self.stats = {}    # (request, boundary) -> stat list
        self.stack = []    # one child-time accumulator per active wrapped call
        self.spans = []    # [id, name, parent id, request, start, end]
        self.span_stack = []
        self.absent = []   # boundaries the code under test no longer has
        self.t0 = time.perf_counter()

    # -- spans ---------------------------------------------------------------------

    def _open(self, name):
        span = [len(self.spans), name, self.span_stack[-1][0] if self.span_stack else None,
                self.request, time.perf_counter() - self.t0, None]
        self.spans.append(span)
        self.span_stack.append(span)
        return span

    def _close(self, span):
        span[5] = time.perf_counter() - self.t0
        self.span_stack.pop()

    def begin_request(self, request_id):
        self.request = request_id
        self._open("request")

    def end_request(self):
        self._close(self.span_stack[-1])

    # -- wrapping ------------------------------------------------------------------

    def wrap(self, name, fn, observe=None, span=False):
        stats, stack, clock, tracer = self.stats, self.stack, time.perf_counter, self
        depth = [0]

        def wrapper(*args, **kwargs):
            key = (tracer.request, name)
            st = stats.get(key)
            if st is None:
                st = stats[key] = _new_stat()
            frame = [0.0]
            stack.append(frame)
            depth[0] += 1
            sp = tracer._open(name) if span else None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                if sp is not None:
                    tracer._close(sp)
                stack.pop()
                depth[0] -= 1
                st[CALLS] += 1
                st[SELF] += elapsed - frame[0]
                if not depth[0]:
                    st[TOTAL] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(st, out, elapsed)
            return out

        return functools.update_wrapper(wrapper, fn)

    def wrap_ordered_map(self, fn):
        """``ordered_map`` runs each item through ``_InWorker``, which brings
        back the counts a worker process made; items are counted too."""
        inner = self.wrap("_parallel.ordered_map", fn, span=True)
        tracer = self

        def ordered_map(map_fn, items):
            items = list(items)
            results = inner(_InWorker(map_fn, tracer.pid), items)
            st = tracer.stats[(tracer.request, "_parallel.ordered_map")]
            st[ITEMS] += len(items)
            out = []
            for value, delta in results:
                if delta:
                    tracer.merge(delta)
                out.append(value)
            return out

        return functools.update_wrapper(ordered_map, fn)

    def merge(self, delta):
        for name, d in delta.items():
            key = (self.request, name)
            st = self.stats.get(key)
            if st is None:
                st = self.stats[key] = _new_stat()
            for i in (CALLS, SELF, TOTAL, HITS, MISS_S, ITEMS):
                st[i] += d[i]
            st[PEAK] = max(st[PEAK], d[PEAK])

    # -- results -------------------------------------------------------------------

    def totals(self):
        """Stats summed over requests, by boundary."""
        out = {}
        for (_, name), st in self.stats.items():
            acc = out.setdefault(name, _new_stat())
            for i in (CALLS, SELF, TOTAL, HITS, MISS_S, ITEMS):
                acc[i] += st[i]
            acc[PEAK] = max(acc[PEAK], st[PEAK])
        return out

    def per_request(self):
        out = {}
        for (req, name), st in self.stats.items():
            out.setdefault(req, {})[name] = [st[CALLS], st[SELF], st[TOTAL]]
        return out


class _InWorker:
    """Runs one ``ordered_map`` item. In a worker process it starts from
    empty counts and returns them with the result; in the parent it only
    calls through, because the parent's wrappers already count."""

    def __init__(self, fn, parent_pid):
        self.fn = fn
        self.parent_pid = parent_pid

    def __call__(self, item):
        if os.getpid() == self.parent_pid:
            return self.fn(item), None
        tracer = _ACTIVE
        tracer.stats.clear()
        tracer.stack.clear()
        tracer.spans.clear()
        tracer.span_stack.clear()
        value = self.fn(item)
        return value, {name: st for (_, name), st in tracer.stats.items()}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(extra_modules=()) -> Tracer:
    """Wrap every boundary and rebind the names that refer to it."""
    global _ACTIVE
    tracer = Tracer()
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "dunklcms" or n.startswith("dunklcms."))]
    namespaces += list(extra_modules)
    for name, modname, path, observe, span in BOUNDARIES:
        module = importlib.import_module("dunklcms." + modname)
        try:
            owner, attr = _resolve(module, path)
            raw = owner.__dict__[attr]
        except (AttributeError, KeyError):
            tracer.absent.append(name)
            continue
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        if name == "_parallel.ordered_map":
            wrapper = tracer.wrap_ordered_map(fn)
        else:
            wrapper = tracer.wrap(name, fn, observe, span)
        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, wrapper)
    _ACTIVE = tracer
    return tracer


def layer_metrics(totals):
    """The per-layer metric values from ``Tracer.totals()``."""
    out = {}
    for metric, boundary, field, unit in METRICS:
        if boundary == "coeffs.ParamRatio":
            value = max(totals.get("coeffs.ParamRatio.add", _new_stat())[PEAK],
                        totals.get("coeffs.ParamRatio.mul", _new_stat())[PEAK])
        else:
            st = totals.get(boundary, _new_stat())
            calls = st[CALLS]
            value = {
                "calls": calls,
                "self_s": st[SELF],
                "total_s": st[TOTAL],
                "miss_s": st[MISS_S],
                "items": st[ITEMS],
                "peak_terms": st[PEAK],
                "hit_ratio": st[HITS] / calls if calls else 0.0,
                "nontrivial_ratio": st[HITS] / calls if calls else 0.0,
            }[field]
        out[metric] = {"value": value, "unit": unit}
    return out
