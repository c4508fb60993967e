"""Span tracer that times the public functions of each tlh layer from outside.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records one span (name, start, end, parent) per call, plus a few
per-call counts, and ``Tracer.uninstall()`` puts the original objects back.
Spans are kept in flat arrays in memory and written out only at the end.
Nothing here edits the package's source: the wrappers live in module and
class dictionaries for the duration of one traced pass.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import os
import time
import types
from array import array

# Span names of the traced layers.  Module-level functions are also wrapped
# under every other name that binds the same object (``shuffle.poly_to_obj``,
# ``cli.dumps``, ``tlh.poincare_poly``, ...), and methods under every alias in
# their class (``__rmul__``, ``__radd__``), so no call path escapes the trace.
POLY_METHODS = (
    ("Polynomial", "__mul__", "poly.mul"),
    ("Polynomial", "__add__", "poly.add"),
    ("Polynomial", "exact_div", "poly.exact_div"),
    ("Polynomial", "divides", "poly.divides"),
    ("BinomialFactor", "divides", "poly.divides"),
    ("FracPoly", "__init__", "poly.frac_reduce"),
    ("FracPoly", "sum", "poly.frac_sum"),
    ("FracPoly", "__eq__", "poly.frac_eq"),
    ("FracPoly", "series", "poly.series"),
)
MODULE_FUNCTIONS = (
    ("shuffle", "poincare_poly", "shuffle.poincare_poly"),
    ("shuffle", "insertion_series", "shuffle.insertion_series"),
    ("shuffle", "load_cache", "shuffle.load_cache"),
    ("shuffle", "save_cache", "shuffle.save_cache"),
    ("serialize", "poly_to_obj", "serialize.poly_to_obj"),
    ("serialize", "poly_from_obj", "serialize.poly_from_obj"),
    ("serialize", "dumps", "serialize.dumps"),
    ("closed_form", "hochschild_zero_series", "closed_form.hochschild_zero_series"),
    ("tableaux", "tableau_sum", "tableaux.tableau_sum"),
)


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap and the
    time they cover is the sum of their durations.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for parent, s, e in zip(parents, starts, ends):
        if parent >= 0:
            out[parent] -= e - s
    return out


class Tracer:
    """Records spans around the traced layers of one imported ``tlh``."""

    def __init__(self, tlh_modules: dict[str, types.ModuleType]):
        self.mods = tlh_modules
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._suites = None

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name, note=None, name_of=None):
        """Wrap ``fn`` so each call records a span.

        ``note(args, result)`` adds per-call counts after a successful call;
        ``name_of(args)`` picks the span name per call instead of ``name``.
        """
        fixed = None if name_of else self._id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(fixed if name_of is None else self._id(name_of(args)))
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_method(self, cls, attr: str, name: str, note) -> None:
        raw = vars(cls)[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapped = self.wrap(fn, name, note)
        new = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
        for alias, obj in list(vars(cls).items()):
            if obj is raw:
                self._replace(cls, alias, new)

    def _wrap_function(self, fn, name: str, note=None, name_of=None) -> None:
        wrapped = self.wrap(fn, name, note, name_of)
        for mod in self.mods.values():
            for alias, obj in list(vars(mod).items()):
                if obj is fn:
                    self._replace(mod, alias, wrapped)

    # -- per-call counts ----------------------------------------------------

    def _note_len(self, key):
        def note(args, result):
            if result is not NotImplemented:
                self._add(key, len(result))
        return note

    def _note_divides(self, args, result) -> None:
        self._add("poly.divides.hits", 1 if result else 0)

    def _note_frac_eq(self, args, result) -> None:
        if result is NotImplemented:
            return
        self_, other = args
        other_den = getattr(other, "den", ())
        self._add("poly.frac_eq.cross", 1 if self_.den != other_den else 0)

    def _note_memo(self, args, result) -> None:
        memo = args[1] if len(args) > 1 else None
        if memo is None or len(memo) < self.counts.get("shuffle.memo.entries", 0):
            return
        self.counts["shuffle.memo.entries"] = len(memo)
        self.counts["shuffle.memo.terms"] = sum(len(v) for v in memo.values())

    def _note_save(self, args, result) -> None:
        self.counts["shuffle.cache.bytes"] = os.path.getsize(args[0])

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        poly = self.mods["poly"]
        notes = {
            "poly.mul": self._note_len("poly.mul.terms_out"),
            "poly.series": self._note_len("poly.series.terms_out"),
            "poly.divides": self._note_divides,
            "poly.frac_eq": self._note_frac_eq,
            "shuffle.poincare_poly": self._note_memo,
            "shuffle.save_cache": self._note_save,
            "serialize.dumps": self._note_len("serialize.dumps.bytes"),
        }
        # a target the program no longer has is skipped; its metrics read 0
        for cls_name, attr, name in POLY_METHODS:
            cls = getattr(poly, cls_name, None)
            if cls is not None and attr in vars(cls):
                self._wrap_method(cls, attr, name, notes.get(name))
        for mod_name, attr, name in MODULE_FUNCTIONS:
            fn = vars(self.mods[mod_name]).get(attr)
            if fn is not None:
                self._wrap_function(fn, name, notes.get(name))
        links = self.mods["links"]
        for attr in links.__all__:
            obj = vars(links)[attr]
            if isinstance(obj, types.FunctionType):
                self._wrap_function(obj, "links")
        cli = self.mods["cli"]
        self._wrap_function(
            vars(cli)["main"], "cli",
            name_of=lambda args: "cli." + (args[0][0] if args and args[0] else "?"),
        )
        # verify runs checks through the Check objects in SUITES; swap in
        # copies whose fn is wrapped, and put the original lists back later.
        verify = self.mods["verify"]
        self._suites = dict(verify.SUITES)
        for suite, checks in self._suites.items():
            verify.SUITES[suite] = [
                dataclasses.replace(c, fn=self.wrap(c.fn, f"verify.{suite}"))
                for c in checks
            ]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self._suites is not None:
            self.mods["verify"].SUITES.update(self._suites)
            self._suites = None

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts.

        ``<name>.calls`` counts spans and ``<name>.s`` sums self time, except
        ``cli.<command>.s`` and ``verify.<suite>.s``, which are inclusive: the
        self time of a command or suite is only its own glue, and the
        inclusive time is what a change below it moves.
        """
        selfs = self_times(self.parent, self.start, self.end)
        out: dict[str, float] = {}

        def add(key, v):
            out[key] = out.get(key, 0) + v

        load_id = self._name_ids.get("shuffle.load_cache", -2)
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            dur = self.end[i] - self.start[i]
            add(name + ".calls", 1)
            if name.startswith(("cli.", "verify.")):
                add(name + ".s", dur)
            else:
                add(name + ".s", selfs[i])
            if name.startswith("cli."):
                add("cli.self.s", selfs[i])
            p = self.parent[i]
            if name == "shuffle.poincare_poly" and p >= 0 and self.name_id[p] == load_id:
                add("shuffle.spot_check.s", dur)
        for key, v in self.counts.items():
            out[key] = v
        calls = out.get("poly.divides.calls", 0)
        hits = out.pop("poly.divides.hits", 0)
        out["poly.divides.hit_ratio"] = hits / calls if calls else 0.0
        calls = out.get("poly.frac_eq.calls", 0)
        cross = out.pop("poly.frac_eq.cross", 0)
        out["poly.frac_eq.cross_ratio"] = cross / calls if calls else 0.0
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as ``index parent name start end`` (gzip TSV)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tparent\tname\tstart\tend\n")
            for i, nid in enumerate(self.name_id):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[nid]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
