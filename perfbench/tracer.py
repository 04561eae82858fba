"""Per-module spans and counters, recorded from outside the program.

`Tracer.install` replaces every public function of every ncproj module with
a timing wrapper, in the defining module and in every module that imported
it by name (homology's `normal_form`, for example), plus a few class methods
that carry the hot paths.  `fields.ratfunc_new` counts RatFunc objects made
by either constructor, the normalizing `__init__` and the trusted `_raw`.  Spans nest on a stack; a span's self time is its
duration minus the duration of the wrapped calls made inside it.  Hook work
(counting matrix cells, Betti numbers, ...) is excluded from every span.
`uninstall` restores the original objects.
"""

from __future__ import annotations

import inspect
from time import perf_counter

# (module, class, method, span name, timed)
CLASS_METHODS = [
    ("words", "NcPoly", "__mul__", "words.ncpoly_mul", True),
    ("fields", "RatFunc", "__init__", "fields.ratfunc_new", False),
    ("fields", "RatFunc", "_raw", "fields.ratfunc_new", False),
    ("fields", "UPoly", "gcd", "fields.upoly_gcd", False),
    ("fields", "QuadExt", "floor", "fields.quadext_floor", False),
    ("linalg", "SpanTracker", "add", "linalg.span", True),
    ("linalg", "SpanTracker", "residue", "linalg.span", True),
    ("linalg", "SpanTracker", "contains", "linalg.span", True),
    ("homology", "GradedModulePresentation", "submodule_span",
     "homology.submodule_span", True),
]


class Tracer:
    def __init__(self):
        self.calls = {}        # span name -> number of calls
        self.self_s = {}       # span name -> summed self time
        self.counts = {}       # hook counters
        self._stack = []
        self._undo = []

    def _bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def exclude(self, seconds):
        """Keep time spent outside the program (a calibration probe) out of
        the self time of the span that is running."""
        if self._stack:
            self._stack[-1] += seconds

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, fn, pre=None, post=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            if pre is not None:
                pre(args)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self_s[name] += (t1 - t0) - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += t1 - t_enter
            if post is not None:
                post(result)
                if stack:
                    stack[-1] += perf_counter() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks ------------------------------------------------------------

    def _rref_pre(self, args):
        rows = args[0]
        if rows:
            self._bump("rref.cells", len(rows) * len(rows[0]))
            self._bump("rref.nonzero", sum(1 for r in rows for x in r if x))

    def _hooks(self, name):
        bump = self._bump
        return {
            "linalg.rref": (self._rref_pre, None),
            "rewriting.complete_truncated_over":
                (None, lambda R: bump("rules", len(R.rules))),
            "homology.minimal_resolution":
                (None, lambda rep: bump("betti", sum(len(b) for b in rep.betti))),
            "real_mult.cf_expand": (None, lambda cf: bump("cf_terms", cf.window)),
            "linalg.span.add": (None, lambda grew: (bump("span.adds"),
                                                    bump("span.useful", int(bool(grew))))),
            "cli": (None, lambda res: bump("stdout_bytes", len(res[1].encode()))),
        }.get(name, (None, None))

    # -- install / uninstall ----------------------------------------------

    def _set(self, owner, attr, value):
        # vars(), not getattr(): a staticmethod must be restored as one
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package_modules, cli_owner):
        """Wrap ncproj's public functions where they are referenced.

        package_modules: {short name: module}; cli_owner: the module whose
        `invoke_cli` runs one command (recorded as the `cli` span).
        """
        wrappers = {}
        for short, mod in package_modules.items():
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    pre, post = self._hooks(name)
                    wrappers[fn] = self.timed(name, fn, pre, post)
        for mod in package_modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])
        for short, cls_name, meth, name, timed in CLASS_METHODS:
            cls = getattr(package_modules[short], cls_name)
            fn = vars(cls)[meth]
            static = isinstance(fn, staticmethod)
            if static:
                fn = fn.__func__
            if timed:
                post = self._hooks(f"{name}.{meth}")[1]
                wrapper = self.timed(name, fn, None, post)
            else:
                wrapper = self.counted(name, fn)
            self._set(cls, meth, staticmethod(wrapper) if static else wrapper)
        pre, post = self._hooks("cli")
        self._set(cli_owner, "invoke_cli",
                  self.timed("cli", cli_owner.invoke_cli, pre, post))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- report -----------------------------------------------------------

    def module_self(self, prefix):
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix + "."))

    def metrics(self, overhead_s):
        c, s, n = self.calls, self.self_s, self.counts
        cells = n.get("rref.cells", 0)
        adds = n.get("span.adds", 0)
        return {
            "fields.ratfunc_new": (c.get("fields.ratfunc_new", 0), "count"),
            "fields.upoly_gcd": (c.get("fields.upoly_gcd", 0), "count"),
            "fields.quadext_floor": (c.get("fields.quadext_floor", 0), "count"),
            "words.ncpoly_mul.calls": (c.get("words.ncpoly_mul", 0), "count"),
            "words.ncpoly_mul.s": (s.get("words.ncpoly_mul", 0.0), "s"),
            "rewriting.complete.s": (s.get("rewriting.complete_truncated", 0.0)
                                     + s.get("rewriting.complete_truncated_over", 0.0), "s"),
            "rewriting.rules": (n.get("rules", 0), "count"),
            "rewriting.normal_form.calls": (c.get("rewriting.normal_form", 0), "count"),
            "rewriting.normal_form.s": (s.get("rewriting.normal_form", 0.0), "s"),
            "rewriting.normal_words.s": (s.get("rewriting.normal_words", 0.0), "s"),
            "rewriting.hilbert.s": (s.get("rewriting.hilbert_function", 0.0), "s"),
            "linalg.rref.calls": (c.get("linalg.rref", 0), "count"),
            "linalg.rref.s": (s.get("linalg.rref", 0.0), "s"),
            "linalg.rref.cells": (cells, "count"),
            "linalg.rref.density": (n.get("rref.nonzero", 0) / cells if cells else 0.0, "ratio"),
            "linalg.kernel_basis.s": (s.get("linalg.kernel_basis", 0.0), "s"),
            "linalg.rank.s": (s.get("linalg.rank", 0.0), "s"),
            "linalg.span.s": (s.get("linalg.span", 0.0), "s"),
            "linalg.span.useful_ratio": (n.get("span.useful", 0) / adds if adds else 0.0,
                                         "ratio"),
            "homology.minimal_resolution.s": (s.get("homology.minimal_resolution", 0.0), "s"),
            "homology.betti_total": (n.get("betti", 0), "count"),
            "homology.graded_hom_dim.s": (s.get("homology.graded_hom_dim", 0.0), "s"),
            "homology.submodule_span.s": (s.get("homology.submodule_span", 0.0), "s"),
            "homology.proj_cohomology.s": (s.get("homology.proj_cohomology", 0.0), "s"),
            "presentations.s": (self.module_self("presentations"), "s"),
            "coord_rings.s": (self.module_self("coord_rings"), "s"),
            "heart.s": (self.module_self("heart"), "s"),
            "real_mult.s": (self.module_self("real_mult"), "s"),
            "real_mult.cf_terms": (n.get("cf_terms", 0), "count"),
            "dsl.s": (self.module_self("dsl"), "s"),
            "cli.self_s": (s.get("cli", 0.0), "s"),
            "cli.stdout_bytes": (n.get("stdout_bytes", 0), "bytes"),
            "trace.overhead_s": (overhead_s, "s"),
        }
