"""Outside-in tracing of the stackzeta modules, for the benchmark's traced run.

``Tracer.install`` wraps, from outside the package, every public function and
method of the layer modules, and every name under which the package looks
one of those functions up (``stackzeta.zeta.block_distinct_sum``,
``stackzeta.cli.zeta_series``, the re-exports in ``stackzeta``, the aliases
``__radd__``/``__rmul__``).  ``uninstall`` puts every original back.

Calls into ``zeta``, ``power``, ``series``, ``rfunctions``, ``hodge``,
``expr`` and ``cli`` each get a span (name, start, end, parent, request).
Calls into the kernel modules ``laurent``, ``multipoly`` and ``motivic`` are
too many for spans (one axiom pass makes hundreds of thousands), so they are
aggregated per name per request as (calls, total, self).  Self time is the
time inside a wrapped call minus the time inside wrapped calls beneath it.
Only calls made inside a request (between ``begin_request`` and
``end_request``) are recorded.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import Counter
from math import factorial

SPAN_MODULES = ("zeta", "power", "series", "rfunctions", "hodge", "expr", "cli")
KERNEL_MODULES = ("laurent", "multipoly", "motivic")
#: Modules with per-layer metrics; partitions_of is lru_cached and under 1%.
LAYERS = KERNEL_MODULES + SPAN_MODULES
#: Special methods wrapped besides the public ones.
DUNDERS = frozenset(
    ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
     "__pow__", "__truediv__", "__rtruediv__", "__eq__")
)
#: Kernel accessors left unwrapped: each call costs about what a wrapper does,
#: and together they made over a million calls per pass, which tripled the
#: traced time of zeta-deep.  Their time counts toward their caller's self time.
ACCESSORS = frozenset(("items", "coefficient", "coeff_sum", "structural_key"))
#: Constructors that get wrapped, for the multipoly.init metric.
INITS = frozenset(("multipoly.MultiPoly",))


def _class_key(a):
    """Key of a class argument's exact representation, read through its API."""
    num, den = getattr(a, "num", None), getattr(a, "den", None)
    if num is None or den is None:
        return (type(a).__name__, repr(a))
    return (tuple(num.items()), den.l_exp, den.factors)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, request, name, start, end, self)
        self.kernel: dict[tuple, list] = {}  # (request, name) -> [calls, total, self]
        self.counts: Counter = Counter()  # exact work counts
        self.groups: dict[int, str] = {}  # request -> group label
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._frames: list[list] = []  # per open call: [seconds in wrapped children, span id]
        self._request = None
        self._next_id = 0
        self._root = None
        self._seen_zeta: set = set()
        self._hooks = {
            "rfunctions.distinct_exponent_sum": self._perm_terms,
            "laurent.IntLaurent.__mul__": self._term_pairs,
            "laurent.IntLaurent.__rmul__": self._term_pairs,
            "laurent.IntLaurent.divexact": self._divexact_hit,
            "motivic.MotivicClass.__eq__": self._eq_crossmul,
            "zeta.zeta_series": self._zeta_repeat,
        }

    # -- installing and removing the wrappers ----------------------------------------

    def install(self, package) -> None:
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]
        wrapped = {}  # original function -> wrapper, for module-level names
        for short in LAYERS:
            mod = sys.modules.get(prefix + short)
            if mod is None:
                continue
            span = short in SPAN_MODULES
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj, span)
                elif inspect.isclass(obj):
                    cls = f"{short}.{obj.__name__}"
                    for meth, fn in list(vars(obj).items()):
                        keep = (
                            (not meth.startswith("_") and (span or meth not in ACCESSORS))
                            or meth in DUNDERS
                            or (meth == "__init__" and cls in INITS)
                        )
                        if keep and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(f"{cls}.{meth}", fn, span))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, span):
        tracer, frames, clock, hook = self, self._frames, time.perf_counter, self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = tracer._request
            if request is None:
                return fn(*args, **kwargs)
            frame = [0.0, None]
            if span:
                frame[1] = tracer._next_id
                tracer._next_id += 1
            parent = frames[-1][1]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                total = end - start
                frames[-1][0] += total
                own = total - frame[0]
                if span:
                    tracer.spans.append((frame[1], parent, request, name, start, end, own))
                else:
                    agg = tracer.kernel.get((request, name))
                    if agg is None:
                        agg = tracer.kernel[(request, name)] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += total
                    agg[2] += own
            if hook is not None:
                tracer._request = None  # calls the hook makes are not the request's
                try:
                    hook(args, kwargs, result)
                finally:
                    tracer._request = request
            return result

        return wrapper

    # -- work counts ---------------------------------------------------------------------

    def _perm_terms(self, args, kwargs, result):
        self.counts["rfunctions.distinct_exponent_sum.perm_terms"] += factorial(len(args[0]))

    def _term_pairs(self, args, kwargs, result):
        a, b = args
        nb = len(b) if isinstance(b, type(a)) else int(b != 0)
        self.counts["laurent.mul.term_pairs"] += len(a) * nb

    def _divexact_hit(self, args, kwargs, result):
        self.counts["laurent.divexact.hits"] += result is not None

    def _eq_crossmul(self, args, kwargs, result):
        a, b = args
        if isinstance(b, type(a)):
            differ = a.den != b.den
        else:
            differ = not a.den.is_trivial
        self.counts["motivic.eq.crossmul"] += differ

    def _zeta_repeat(self, args, kwargs, result):
        order = args[1] if len(args) > 1 else kwargs["order"]
        key = (_class_key(args[0]), order, kwargs.get("cap"))
        self.counts["zeta.zeta_series.repeats"] += key in self._seen_zeta
        self._seen_zeta.add(key)

    # -- requests --------------------------------------------------------------------------

    def begin_request(self, request: int, group: str) -> None:
        self.groups[request] = group
        self._root = (self._next_id, time.perf_counter())
        self._next_id += 1
        self._frames[:] = [[0.0, self._root[0]]]
        self._request = request

    def end_request(self) -> None:
        end = time.perf_counter()
        sid, start = self._root
        own = end - start - self._frames[0][0]
        self.spans.append((sid, None, self._request, "request", start, end, own))
        self._request = None

    # -- results -----------------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name (calls, total, self), self per (group, module), time under
        each span layer (outermost spans of the layer only), and the counts."""
        names: dict[str, list] = {}
        group_self: Counter = Counter()
        layer_of = {sid: name.split(".")[0] for sid, _, _, name, _, _, _ in self.spans}
        layer_total: Counter = Counter()
        for sid, parent, _, _, start, end, _ in self.spans:
            if layer_of[sid] != layer_of.get(parent):
                layer_total[layer_of[sid]] += end - start

        def add(request, name, calls, total, own):
            agg = names.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += own
            group_self[f"{self.groups[request]}/{name.split('.')[0]}"] += own

        for _, _, request, name, start, end, own in self.spans:
            add(request, name, 1, end - start, own)
        for (request, name), (calls, total, own) in self.kernel.items():
            add(request, name, calls, total, own)
        return {"names": names, "group_self": dict(group_self), "layer_total": dict(layer_total),
                "counts": dict(self.counts)}

    def write(self, path: str) -> None:
        """Spans and kernel aggregates as gzipped tab-separated lines."""
        with gzip.open(path, "wt") as out:
            out.write("span\tid\tparent\trequest\tname\tstart\tend\tself\n")
            for sid, parent, request, name, start, end, own in self.spans:
                out.write(f"span\t{sid}\t{'' if parent is None else parent}\t{request}\t{name}\t{start:.9f}\t{end:.9f}\t{own:.9f}\n")
            out.write("kernel\trequest\tname\tcalls\ttotal\tself\n")
            for (request, name), (calls, total, own) in self.kernel.items():
                out.write(f"kernel\t{request}\t{name}\t{calls}\t{total:.9f}\t{own:.9f}\n")


# -- per-layer metrics ------------------------------------------------------------------------

#: metric stem -> wrapped names it sums (methods with their dunder aliases).
SOURCES = {
    "rfunctions.distinct_exponent_sum": ("rfunctions.distinct_exponent_sum",),
    "rfunctions.block_distinct_sum": ("rfunctions.block_distinct_sum",),
    "zeta.zeta_series": ("zeta.zeta_series",),
    "zeta.zeta_from_sigma": ("zeta.zeta_from_sigma",),
    "zeta.zeta_of_polynomial": ("zeta.zeta_of_polynomial",),
    "laurent.mul": ("laurent.IntLaurent.__mul__", "laurent.IntLaurent.__rmul__"),
    "laurent.divexact": ("laurent.IntLaurent.divexact",),
    "motivic.add": ("motivic.MotivicClass.__add__", "motivic.MotivicClass.__radd__"),
    "motivic.mul": ("motivic.MotivicClass.__mul__", "motivic.MotivicClass.__rmul__"),
    "motivic.normalize": ("motivic.MotivicClass.normalize",),
    "motivic.eq": ("motivic.MotivicClass.__eq__",),
    "motivic.inverse": ("motivic.MotivicClass.inverse",),
    "motivic.hd_realization": ("motivic.MotivicClass.hd_realization",),
    "series.mul": ("series.TruncatedSeries.__mul__",),
    "series.inverse": ("series.TruncatedSeries.inverse",),
    "series.pow": ("series.TruncatedSeries.__pow__",),
    "power.power": ("power.power",),
    "power.lambda_factorize": ("power.lambda_factorize",),
    "power.provider_series": ("power.LambdaProvider.series",),
    "multipoly.mul": ("multipoly.MultiPoly.__mul__", "multipoly.MultiPoly.__rmul__"),
    "multipoly.init": ("multipoly.MultiPoly.__init__",),
    "hodge.hd_zeta": ("hodge.hd_zeta",),
    "hodge.effectiveness": ("hodge.check_class_effectiveness", "hodge.check_polynomial_effectiveness"),
    "expr.parse": ("expr.parse_class", "expr.parse_poly", "expr.parse_series"),
    "cli.main": ("cli.main",),
}

#: (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    [("rfunctions.distinct_exponent_sum.calls", "count", "lower"),
     ("rfunctions.distinct_exponent_sum.self_s", "s", "lower"),
     ("rfunctions.distinct_exponent_sum.perm_terms", "count", "lower"),
     ("rfunctions.block_distinct_sum.calls", "count", "lower"),
     ("rfunctions.block_distinct_sum.self_s", "s", "lower"),
     ("zeta.zeta_series.calls", "count", "lower"),
     ("zeta.zeta_series.self_s", "s", "lower"),
     ("zeta.zeta_series.repeat_frac", "frac", "higher"),
     ("zeta.zeta_from_sigma.calls", "count", "lower"),
     ("zeta.zeta_from_sigma.self_s", "s", "lower"),
     ("zeta.zeta_of_polynomial.self_s", "s", "lower"),
     ("laurent.mul.calls", "count", "lower"),
     ("laurent.mul.self_s", "s", "lower"),
     ("laurent.mul.term_pairs", "count", "lower"),
     ("laurent.divexact.calls", "count", "lower"),
     ("laurent.divexact.self_s", "s", "lower"),
     ("laurent.divexact.hit_frac", "frac", "higher")]
    + [(f"motivic.{op}.{m}", unit, "lower")
       for op in ("add", "mul", "normalize", "eq", "inverse") for m, unit in (("calls", "count"), ("self_s", "s"))]
    + [("motivic.eq.crossmul_frac", "frac", "lower"),
       ("motivic.hd_realization.self_s", "s", "lower"),
       ("series.mul.calls", "count", "lower"),
       ("series.mul.self_s", "s", "lower"),
       ("series.inverse.calls", "count", "lower"),
       ("series.inverse.self_s", "s", "lower"),
       ("series.pow.self_s", "s", "lower"),
       ("power.power.calls", "count", "lower"),
       ("power.power.self_s", "s", "lower"),
       ("power.lambda_factorize.calls", "count", "lower"),
       ("power.lambda_factorize.self_s", "s", "lower"),
       ("power.provider_series.calls", "count", "lower"),
       ("multipoly.mul.calls", "count", "lower"),
       ("multipoly.mul.self_s", "s", "lower"),
       ("multipoly.init.calls", "count", "lower"),
       ("multipoly.init.self_s", "s", "lower"),
       ("multipoly.motivic_requests.self_s", "s", "lower"),
       ("hodge.hd_zeta.calls", "count", "lower"),
       ("hodge.hd_zeta.self_s", "s", "lower"),
       ("hodge.effectiveness.self_s", "s", "lower"),
       ("expr.parse.calls", "count", "lower"),
       ("expr.parse.self_s", "s", "lower"),
       ("cli.main.self_s", "s", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.total_s", "s", "lower") for layer in SPAN_MODULES]
    + [("bench.trace_overhead_frac", "frac", "lower")]
)


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values of one traced pass (all but the overhead)."""
    names, counts = summary["names"], summary["counts"]

    def agg(stem, index):
        return sum(names.get(n, (0, 0.0, 0.0))[index] for n in SOURCES[stem])

    def frac(part, whole):
        return part / whole if whole else 0.0

    out = {}
    for metric, _, _ in PER_LAYER:
        stem, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = agg(stem, 0)
        elif kind == "self_s" and stem in SOURCES and stem != "expr.parse":
            out[metric] = agg(stem, 2)
    out["expr.parse.self_s"] = sum((v[2] for n, v in names.items() if n.startswith("expr.")), 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum((v[2] for n, v in names.items() if n.split(".")[0] == layer), 0.0)
    for layer in SPAN_MODULES:
        out[f"{layer}.total_s"] = summary["layer_total"].get(layer, 0.0)
    out["multipoly.motivic_requests.self_s"] = summary["group_self"].get("motivic/multipoly", 0.0)
    out["rfunctions.distinct_exponent_sum.perm_terms"] = counts.get("rfunctions.distinct_exponent_sum.perm_terms", 0)
    out["laurent.mul.term_pairs"] = counts.get("laurent.mul.term_pairs", 0)
    out["laurent.divexact.hit_frac"] = frac(counts.get("laurent.divexact.hits", 0), out["laurent.divexact.calls"])
    out["motivic.eq.crossmul_frac"] = frac(counts.get("motivic.eq.crossmul", 0), out["motivic.eq.calls"])
    out["zeta.zeta_series.repeat_frac"] = frac(counts.get("zeta.zeta_series.repeats", 0), out["zeta.zeta_series.calls"])
    return out
