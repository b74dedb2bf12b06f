"""Outside-in tracer for the liesplit layers.

The tracer changes nothing inside ``src/liesplit``.  While installed it
replaces every public function of a layer module with a timing wrapper,
in every ``liesplit`` namespace that bound that function by name (so
``zalgebra.poisson_bracket``, ``invariants.poisson_bracket`` and
``poisson.poisson_bracket`` all reach the same wrapper), plus the
``Polynomial`` methods ``__mul__``/``__rmul__``/``eval``/``map_vars`` on
the class.  Uninstalling restores every binding.

Each call becomes a span (name, start, end, parent span, job id) kept in
compact in-memory arrays and written out by :meth:`Tracer.write`.  Self
time is a span's duration minus the time covered by its child spans.
Exact counters are computed at the boundary from the call's arguments
and result, so they repeat exactly between runs of one input.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from math import comb

# layer module -> layer name used in metric names
LAYERS = {
    "liesplit._kernels": "kernels",
    "liesplit._kernels.pure": "kernels",
    "liesplit._kernels.speedups": "kernels",
    "liesplit.poly": "poly",
    "liesplit.linalg": "linalg",
    "liesplit.liealg": "liealg",
    "liesplit.splitting": "splitting",
    "liesplit.poisson": "poisson",
    "liesplit.invariants": "invariants",
    "liesplit.weyl": "weyl",
    "liesplit.zalgebra": "zalgebra",
    "liesplit.cli": "cli",
}

# namespaces whose by-name bindings are rewired (the package re-exports too)
NAMESPACES = ("liesplit",) + tuple(m for m in LAYERS if m != "liesplit._kernels.speedups")

POLY_METHODS = {"__mul__": "poly.mul", "__rmul__": "poly.mul",
                "eval": "poly.eval", "map_vars": "poly.map_vars"}

JOB_SPAN = "job"


def _jacobi_triples(args, kwargs, result):
    dim = args[0] if args else kwargs["dim"]
    if result.passed:
        return comb(dim, 3)
    i, j, k = result.first_violation
    # lexicographic position of (i, j, k) among triples i < j < k, inclusive
    before = sum(comb(dim - 1 - a, 2) for a in range(i))
    before += sum(dim - 1 - b for b in range(i + 1, j))
    return before + (k - j)


def _cells(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return m.nrows * m.ncols


# span name -> (counter name, value from (args, kwargs, result), "sum" | "max")
COUNTERS = {
    "kernels.mul_terms": ("kernels.mul_terms.term_pairs",
                          lambda a, k, r: len(a[0]) * len(a[1]), "sum"),
    "kernels.axpy_terms": ("kernels.axpy_terms.terms_in",
                           lambda a, k, r: len(a[1]), "sum"),
    "weyl.enumerate_weyl": ("weyl.enumerate_weyl.elements",
                            lambda a, k, r: r.order, "sum"),
    "liealg.jacobi_report": ("liealg.jacobi_report.triples", _jacobi_triples, "sum"),
    "linalg.rank": ("linalg.max_cells", _cells, "max"),
    "linalg.rank_and_nullspace": ("linalg.max_cells", _cells, "max"),
    "linalg.inverse": ("linalg.max_cells", _cells, "max"),
    "linalg.solve": ("linalg.max_cells", _cells, "max"),
    "linalg.solve_many": ("linalg.max_cells", _cells, "max"),
}


def _layer_functions():
    """Yield (namespace module, attribute, function, span name) for every binding to wrap."""
    for modname in NAMESPACES:
        mod = importlib.import_module(modname)
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            layer = LAYERS.get(getattr(value, "__module__", None))
            if layer is None or not hasattr(value, "__name__"):
                continue
            yield mod, attr, value, f"{layer}.{value.__name__}"


def traceable_names():
    """Every span name the tracer can record."""
    names = {name for _, _, _, name in _layer_functions()}
    return sorted(names | set(POLY_METHODS.values()))


class Tracer:
    """Records spans while installed; use as a context manager around traced work."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.job_names: list[str] = []
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []       # [span index, name id, covered child time]
        self._depth: list[int] = []        # open spans per name id (for recursion)
        self.calls: list[int] = []
        self.total_s: list[float] = []     # outermost-span durations only
        self.self_s: list[float] = []
        self._job = -1
        self._saved: list[tuple] = []

    # -- span bookkeeping --------------------------------------------------
    def _id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return sid

    def _open(self, sid: int) -> None:
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(sid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_job.append(self._job)
        self.span_end.append(0.0)
        self._depth[sid] += 1
        stack.append([idx, sid, 0.0])
        self.span_start.append(time.perf_counter())

    def _close(self) -> None:
        end = time.perf_counter()
        idx, sid, covered = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.calls[sid] += 1
        self.self_s[sid] += dur - covered
        self._depth[sid] -= 1
        if not self._depth[sid]:
            self.total_s[sid] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def _count(self, rule, args, kwargs, result) -> None:
        name, fn, how = rule
        value = fn(args, kwargs, result)
        if how == "sum":
            self.counters[name] = self.counters.get(name, 0) + value
        else:
            self.counters[name] = max(self.counters.get(name, 0), value)

    def _wrap(self, fn, name: str):
        sid = self._id(name)
        rule = COUNTERS.get(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            open_(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close()
            if rule is not None:
                self._count(rule, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- install / restore ---------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        from liesplit.poly import Polynomial

        wrappers: dict[int, object] = {}
        for mod, attr, fn, name in _layer_functions():
            w = wrappers.get(id(fn))
            if w is None:
                w = wrappers[id(fn)] = self._wrap(fn, name)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, w)
        for attr, name in POLY_METHODS.items():
            fn = Polynomial.__dict__[attr]
            w = wrappers.get(id(fn))
            if w is None:
                w = wrappers[id(fn)] = self._wrap(fn, name)
            self._saved.append((Polynomial, attr, fn))
            setattr(Polynomial, attr, w)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- jobs ------------------------------------------------------------------
    def run_job(self, job_name: str, fn, *args):
        """Run ``fn(*args)`` as job span ``job``; spans it causes carry the job id."""
        if self._stack:
            raise RuntimeError("jobs cannot nest")
        self._job = len(self.job_names)
        self.job_names.append(job_name)
        self._open(self._id(JOB_SPAN))
        try:
            return fn(*args)
        finally:
            self._close()
            self._job = -1

    # -- queries -----------------------------------------------------------
    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) for a span name; zeros if never seen."""
        sid = self._ids.get(name)
        if sid is None:
            return 0, 0.0, 0.0
        return self.calls[sid], self.total_s[sid], self.self_s[sid]

    def job_totals(self, name: str) -> list[float]:
        """Seconds inside outermost ``name`` spans, per job id."""
        totals = [0.0] * len(self.job_names)
        sid = self._ids.get(name)
        if sid is None:
            return totals
        names, parents = self.span_name, self.span_parent
        for idx, s in enumerate(names):
            if s != sid or self.span_job[idx] < 0:
                continue
            p = parents[idx]
            while p >= 0 and names[p] != sid:
                p = parents[p]
            if p < 0:
                totals[self.span_job[idx]] += self.span_end[idx] - self.span_start[idx]
        return totals

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        covered = [0.0] * len(self.span_start)
        for idx, p in enumerate(self.span_parent):
            if p >= 0:
                covered[p] += self.span_end[idx] - self.span_start[idx]
        return [self.span_end[i] - self.span_start[i] - covered[i]
                for i in range(len(covered))]

    def write(self, path) -> None:
        """One JSON header line, then the five span columns as raw arrays."""
        columns = [("name", self.span_name), ("start", self.span_start),
                   ("end", self.span_end), ("parent", self.span_parent),
                   ("job", self.span_job)]
        header = {
            "spans": len(self.span_start),
            "names": self.names,
            "jobs": self.job_names,
            "columns": [[c, a.typecode, a.itemsize] for c, a in columns],
            "counters": self.counters,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in columns:
                a.tofile(fh)
