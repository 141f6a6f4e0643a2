"""In-memory span tracer installed around fglog's public functions.

The tracer replaces each traced function by a wrapper in every namespace
that binds it (the `fglog` package, its submodules and the classes
`Series`, `TensorElement`, `HopfElement`, `HopfAlgebra`), records one span
per call (name, start, end, parent span, operation id) and puts the
originals back on `uninstall`. Nothing in `src/` changes.

Self time of a span is its duration minus the time its child spans cover
and minus the tracer's own counting work done inside it. The run is
single-threaded and has no queues, so no layer waits: wait time is zero
for every layer and is reported as such by the caller.

For the series product (`series._series_mul`, reached through
`Series.__mul__`) the wrapper also counts, from the operands' degree
histograms and without calling into fglog, the candidate coefficient
pairs (`pairs`: key pairs of term pairs within the variable-order cap)
and the pairs that survive the Hopf degree bound (`madds`: one rational
multiply-add each). `mul_key` and the scalar type are never wrapped.
"""

import functools
import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

CLASS_NAMES = ("Series", "TensorElement", "HopfElement", "HopfAlgebra")

# Layer metrics named after methods or private helpers; every other traced
# name is a public module-level function (see `targets`).
METHOD_TARGETS = (
    ("series.mul", "fglog.series", "_series_mul"),
    ("series.add", "Series", "__add__"),
    ("series.substitute", "Series", "substitute"),
    ("series.comp_inverse", "Series", "comp_inverse"),
    ("series.mul_inverse", "Series", "mul_inverse"),
    ("series.map_coefficients", "Series", "map_coefficients"),
    ("hopf.tensor_mul", "TensorElement", "__mul__"),
    ("hopf.apply_slot", "TensorElement", "apply_slot"),
    ("hopf.nilpotency_slack", "TensorElement", "nilpotency_slack"),
    ("hopf.verify_hopf_axioms", "fglog.hopf", "verify_hopf_axioms"),
    ("hopf.build_hopf_algebra", "fglog.hopf", "build_hopf_algebra"),
)

# Modules whose public functions are all traced; hopf and series are
# covered by METHOD_TARGETS instead, because their public module-level
# functions are aliases that nothing calls.
FUNCTION_MODULES = ("fgl", "jsonio", "exprparse", "cli")


def fglog_modules():
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "fglog" or name.startswith("fglog."))}


def _classes(modules):
    found = {}
    for mod in modules.values():
        for cname in CLASS_NAMES:
            cls = vars(mod).get(cname)
            if inspect.isclass(cls) and cls.__module__.startswith("fglog"):
                found[cname] = cls
    return found


def targets(modules=None):
    """(metric name, owner, attribute) for every traced callable of the
    currently imported fglog."""
    modules = modules if modules is not None else fglog_modules()
    classes = _classes(modules)
    owners = {**modules, **classes}
    out = [(name, owners[owner], attr)
           for name, owner, attr in METHOD_TARGETS]
    for short in FUNCTION_MODULES:
        mod = modules[f"fglog.{short}"]
        for attr, value in sorted(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == mod.__name__):
                out.append((f"{short}.{attr}", mod, attr))
    return out


def _hopf_degree(degrees, key, cache):
    d = cache.get(key)
    if d is None:
        d = cache[key] = sum(e * w for mono in key
                             for e, w in zip(mono, degrees))
    return d


def _histogram(series, cache):
    """{variable degree: {Hopf degree: number of coefficient keys}}."""
    degrees = series.algebra.degrees
    hist = {}
    for exps, coeff in series.terms.items():
        row = hist.setdefault(sum(exps), {})
        for key in coeff.terms:
            h = _hopf_degree(degrees, key, cache)
            row[h] = row.get(h, 0) + 1
    return hist


def series_mul_pairs(f, g, cache=None):
    """(pairs, madds) the product f * g visits, from degree histograms."""
    cache = {} if cache is None else cache
    if f.order == math.inf and g.order == math.inf:
        cap = math.inf
    else:
        cap = min(f.order + g.valuation(), g.order + f.valuation())
    bound = f.algebra.degree_bound
    hf, hg = _histogram(f, cache), _histogram(g, cache)
    totals_g = {db: sum(row.values()) for db, row in hg.items()}
    pairs = madds = 0
    for da, row_a in hf.items():
        n_a = sum(row_a.values())
        for db, row_b in hg.items():
            if da + db > cap:
                continue
            pairs += n_a * totals_g[db]
            for xa, ca in row_a.items():
                for xb, cb in row_b.items():
                    if xa + xb <= bound:
                        madds += ca * cb
    return pairs, madds


class Tracer:
    """Spans and counters for one traced phase; install, run, uninstall."""

    def __init__(self):
        self.spans = []  # (span id, name, start, end, parent id, op id)
        self.overhead = defaultdict(float)  # span id -> counting time
        self.counters = defaultdict(int)
        self.op_id = None
        self.active = False
        self._stack = []
        self._next_id = 0
        self._installed = []  # (namespace, attribute, original)
        self._degree_cache = {}

    # -- installation -----------------------------------------------------

    def install(self, modules=None):
        modules = modules if modules is not None else fglog_modules()
        namespaces = list(modules.values()) + list(
            _classes(modules).values())
        for name, owner, attr in targets(modules):
            original = vars(owner)[attr]
            count = self._count_mul if name == "series.mul" else None
            wrapper = self._wrap(name, original, count)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._installed.append((ns, key, original))
        self.active = True

    def uninstall(self):
        self.active = False
        for ns, key, original in reversed(self._installed):
            setattr(ns, key, original)
        restored = self._installed
        self._installed = []
        return restored

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if count is not None:
                t0 = perf_counter()
                count(*args)
                if parent is not None:
                    tracer.overhead[parent] += perf_counter() - t0
            sid = tracer._next_id
            tracer._next_id += 1
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent,
                                     tracer.op_id))

        return wrapper

    def _count_mul(self, f, g):
        pairs, madds = series_mul_pairs(f, g, self._degree_cache)
        c = self.counters
        c["series.mul.pairs"] += pairs
        c["series.mul.madds"] += madds
        c["series.mul.max_pairs"] = max(c["series.mul.max_pairs"], pairs)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """{span id: self time}."""
        covered = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return {sid: (end - start) - covered[sid] - self.overhead[sid]
                for sid, _, start, end, _, _ in self.spans}

    def by_name(self):
        """{name: (calls, self seconds)}."""
        selfs = self.self_times()
        calls = defaultdict(int)
        spent = defaultdict(float)
        for sid, name, *_ in self.spans:
            calls[name] += 1
            spent[name] += selfs[sid]
        return {name: (calls[name], spent[name]) for name in calls}

    def top_level_cover(self, op_id):
        """Seconds of an operation covered by spans without a parent."""
        return sum(end - start for _, _, start, end, parent, op in self.spans
                   if parent is None and op == op_id)

    def write(self, path):
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in sorted(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, op,
                                     selfs[sid]]) + "\n")
