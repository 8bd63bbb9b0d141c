"""Spans around calls into the program's layers, recorded from outside.

The tracer wraps public functions and methods of the imported package.
A module-level function is rebound in every package module that holds it,
since several modules bind ``apply_field`` and friends by ``from ... import``;
methods are wrapped on their class.  Each span keeps its name, start, end,
parent and the id of the op it belongs to; spans stay in memory until the
run writes them out.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import json
import sys
import time

# span name -> (module, attribute) of module-level functions
FUNCTIONS = {
    "heisenberg.apply_field": [("heisenberg", "apply_field")],
    "heisenberg.sub_laplacian": [("heisenberg", "sub_laplacian")],
    "gauge.gauge_transform": [("gauge", "gauge_transform")],
    "gauge.curvature": [("gauge", "curvature")],
    "gauge.asd_residuals": [("gauge", "asd_residuals")],
    "realslice.pullback_connection": [("realslice", "pullback_connection")],
    "realslice.real_field": [("realslice", "real_field")],
    "realslice.formula_split": [("realslice", "real_curvature_split")],
    "realslice.projector_split": [("realslice", "real_curvature_split_projector")],
    "realslice.real_sub_laplacian": [("realslice", "real_sub_laplacian")],
    "ansatz.build_connection": [("ansatz", "build_connection")],
    "cli.parse_seed": [("cli", "parse_seed")],
    "cli.emit": [("cli", "_emit")],
    "numcheck.evaluate": [("numcheck", "evaluate")],
    "twistor.certificates": [
        ("twistor", n)
        for n in (
            "tangency_certificate",
            "commuting_certificate",
            "diagram_check",
            "alpha_roundtrip_certificate",
            "parametrization_agreement_certificate",
        )
    ],
}

# span name -> (module, class, attribute) of methods
METHODS = {
    "exactalg.try_div": [("exactalg.poly", "MultiPoly", "try_div")],
    "exactalg.poly_mul": [
        ("exactalg.poly", "MultiPoly", "__mul__"),
        ("exactalg.poly", "MultiPoly", "__rmul__"),
    ],
    "exactalg.substitute": [("exactalg.poly", "MultiPoly", "substitute")],
    "exactalg.rf_new": [("exactalg.rational", "RationalFunction", "__init__")],
    "exactalg.rf_eq": [("exactalg.rational", "RationalFunction", "__eq__")],
    "exactalg.rf_derivative": [("exactalg.rational", "RationalFunction", "derivative")],
    "exactalg.rf_str": [("exactalg.rational", "RationalFunction", "__str__")],
    "exactalg.mat_inverse": [("exactalg.matrix", "MatRF", "inverse")],
    "ansatz.seed_create": [("ansatz", "HarmonicSeed", "create")],
}

PACKAGE = "h5twistor"
SO6_SUITE = "so6model.suite"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, op id, name, start, end)
        self.stats = {}  # name -> [calls, self seconds]
        self.counters = {
            "try_div.hits": 0,
            "poly_mul.term_pairs": 0,
            "out.max_num_terms": 0,
            "out.max_den_degree": 0,
        }
        self.op_id = None
        self._stack = []  # [span id, time covered by children]
        self._next_id = 0
        self._undo = []

    # -- spans -------------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        self._next_id += 1
        frame = [self._next_id, 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            st = self.stats.setdefault(name, [0, 0.0])
            st[0] += 1
            st[1] += duration - frame[1]
            self.spans.append((frame[0], parent, self.op_id, name, start, end))

    def op(self, op_id, fn):
        """Run one op as a top-level span."""
        self.op_id = op_id
        try:
            return self.call("op", fn, (), {})
        finally:
            self.op_id = None

    # -- wrapping ----------------------------------------------------------------

    def _wrapper(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _module(self, name):
        return sys.modules[f"{PACKAGE}.{name}"]

    def install(self):
        modules = [m for k, m in sys.modules.items() if k.startswith(PACKAGE + ".")]
        for name, targets in FUNCTIONS.items():
            for mod, attr in targets:
                original = getattr(self._module(mod), attr)
                wrapped = self._wrapper(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapped)

        after = {
            "exactalg.try_div": self._count_hit,
            "exactalg.poly_mul": self._count_pairs,
            "exactalg.rf_new": self._record_size,
        }
        for name, targets in METHODS.items():
            for mod, cls_name, attr in targets:
                cls = getattr(self._module(mod), cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    self._set(cls, attr, staticmethod(self._wrapper(name, raw.__func__)))
                else:
                    self._set(cls, attr, self._wrapper(name, raw, after.get(name)))

        so6 = self._module("so6model")
        suite = tuple((n, self._wrapper(SO6_SUITE, fn)) for n, fn in so6.SUITE)
        self._set(so6, "SUITE", suite)
        self._set(so6, "orthogonality_check", self._wrapper(SO6_SUITE, so6.orthogonality_check))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- counters read at the layer boundary -------------------------------------

    def _count_hit(self, result, args):
        if result is not None:
            self.counters["try_div.hits"] += 1

    def _count_pairs(self, result, args):
        a, b = args
        self.counters["poly_mul.term_pairs"] += len(a.terms) * len(getattr(b, "terms", (0,)))

    def _record_size(self, result, args):
        rf = args[0]
        c = self.counters
        c["out.max_num_terms"] = max(c["out.max_num_terms"], len(rf.num.terms))
        c["out.max_den_degree"] = max(c["out.max_den_degree"], rf.den.total_degree())

    # -- results -----------------------------------------------------------------

    def top_level_cover(self, op_prefix=""):
        """Seconds covered by the direct children of op spans whose op id
        starts with ``op_prefix``."""
        ops = {s[0] for s in self.spans if s[3] == "op" and s[2].startswith(op_prefix)}
        return sum(s[5] - s[4] for s in self.spans if s[1] in ops)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, op_id, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, op_id, name, start, end]) + "\n")
