"""Per-layer tracing of pflab, installed from outside the package.

Each hook replaces one public entry point (or one internal function that
callers look up by name) with a wrapper that counts calls and accumulates
self time: the wrapper's wall time minus the time spent in nested hooks.
Every module-level binding of a hooked function is replaced, so callers
that imported it by name (``from .field import _divexact``) are traced
too.  Aggregates live in memory; nothing is written per call.

A hooked name that no longer exists is recorded as absent and reported
as zero calls, so a change that deletes it does not break the benchmark.
"""

from __future__ import annotations

import importlib
import time

# metric name -> targets as (module, attribute path); one metric may cover
# several functions ("span" is span + from_rows)
HOOKS: dict[str, tuple[tuple[str, str], ...]] = {
    "field.poly_mul": (("field", "Poly.__mul__"),),
    "field.divexact": (("field", "_divexact"),),
    "field.frobenius_decompose": (("field", "FieldElement.frobenius_decompose"),),
    "field.canonical": (("field", "FieldElement.canonical"),),
    "linalg.span": (("linalg", "SqSubspace.span"), ("linalg", "SqSubspace.from_rows")),
    "linalg.intersection": (("linalg", "SqSubspace.intersection"),),
    "linalg.left_kernel": (("linalg", "left_kernel"),),
    "linalg.membership": (
        ("linalg", "SqSubspace.coordinates_of"),
        ("linalg", "SqSubspace.reduce_row"),
    ),
    "linalg.bareiss": (("linalg", "_bareiss_jordan"),),
    "bilinear.common_slot_space": (("bilinear", "common_slot_space"),),
    "bilinear.factor_out": (("bilinear", "factor_out"),),
    "bilinear.common_factor": (("bilinear", "common_factor"),),
    "bilinear.next_slot": (("bilinear", "_next_slot"),),
    "bilinear.stable_fallback": (("bilinear", "_stable_subspace"),),
    "bilinear.admissible": (("bilinear", "_admissible"),),
    "quadratic.evaluate": (("quadratic", "QuadraticPfister.evaluate"),),
    "quadratic.insep_obstruction": (("quadratic", "insep_obstruction"),),
    "valuation.parity": (("valuation", "parity"),),
    "sampling.random_vector": (("sampling", "random_vector"),),
    "cli.contr_failures": (("cli", "_contr_failures"),),
    "cli.emit": (("cli", "_emit"),),
}

MODULES = ("field", "linalg", "bilinear", "quadratic", "valuation", "sampling", "cli")

# indices into a hook's stat list
CALLS, SELF_S, PEAK, HITS = range(4)


def _peak_entry_terms(stat, args, result):
    """linalg.bareiss: largest entry left in the eliminated matrix."""
    rows = args[1]
    size = max((len(p.terms) for row in rows for p in row), default=0)
    if size > stat[PEAK]:
        stat[PEAK] = size


def _accepted(stat, args, result):
    """bilinear.admissible: accepted candidates."""
    if result:
        stat[HITS] += 1


EXTRAS = {
    "linalg.bareiss": _peak_entry_terms,
    "bilinear.admissible": _accepted,
}


def _wrap(fn, stat, child, extra):
    """Wrapper charging fn's self time to stat.

    child[0] collects the wall time of hooks nested in the current call;
    the time an extra collector takes is charged as child time to the
    caller, so it stays out of every self time.
    """
    perf = time.perf_counter

    def traced(*args, **kwargs):
        outer = child[0]
        child[0] = 0.0
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf()
            stat[CALLS] += 1
            stat[SELF_S] += t1 - t0 - child[0]
            child[0] = outer + t1 - t0
        if extra is not None:
            extra(stat, args, result)
            child[0] += perf() - t1
        return result

    return traced


def _wrap_leaf_mul(fn, stat, child):
    """Lean wrapper for Poly.__mul__, which calls no other hook and runs
    millions of times per certificate."""
    perf = time.perf_counter

    def traced(self, other):
        t0 = perf()
        result = fn(self, other)
        dt = perf() - t0
        stat[CALLS] += 1
        stat[SELF_S] += dt
        size = len(result.terms)
        if size > stat[PEAK]:
            stat[PEAK] = size
        child[0] += perf() - t0
        return result

    return traced


class Tracer:
    """Installs the hooks on the imported pflab modules and restores them."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"pflab.{name}") for name in MODULES}
        # the package namespace re-exports the public functions, too
        self.namespaces = [importlib.import_module("pflab"), *self.modules.values()]
        self.stats = {name: [0, 0.0, 0, 0] for name in HOOKS}
        self.absent: list[str] = []
        self._child = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    def _resolve(self, module: str, path: str):
        """(owner, attribute, raw descriptor) or None when the name is gone."""
        owner = self.modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None)
        return None if raw is None else (owner, attr, raw)

    def install(self) -> None:
        self.absent = []
        for name, targets in HOOKS.items():
            found = 0
            for module, path in targets:
                hit = self._resolve(module, path)
                if hit is None:
                    continue
                found += 1
                owner, attr, raw = hit
                self._patch(name, owner, attr, raw)
            if not found:
                self.absent.append(name)

    def _patch(self, name, owner, attr, raw) -> None:
        stat, child = self.stats[name], self._child
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(raw.__func__, stat, child, EXTRAS.get(name)))
            self._set(owner, attr, wrapped)
            return
        if name == "field.poly_mul":
            wrapped = _wrap_leaf_mul(raw, stat, child)
        else:
            wrapped = _wrap(raw, stat, child, EXTRAS.get(name))
        if isinstance(owner, type):
            self._set(owner, attr, wrapped)
            return
        # module-level function: rebind it in every module that imported it
        for module in self.namespaces:
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, "__dict__", {}).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def fallback_calls(self) -> int:
        return self.stats["bilinear.stable_fallback"][CALLS]

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: <hook>.calls and <hook>.self_s, plus the
        extra fields and ratios named in the layer map."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            out[name + ".calls"] = stat[CALLS]
            out[name + ".self_s"] = stat[SELF_S]
        out["field.poly_mul.max_terms"] = self.stats["field.poly_mul"][PEAK]
        out["linalg.bareiss.max_entry_terms"] = self.stats["linalg.bareiss"][PEAK]
        next_calls = self.stats["bilinear.next_slot"][CALLS]
        out["bilinear.next_slot.fallback_ratio"] = (
            self.fallback_calls() / next_calls if next_calls else 0.0
        )
        adm = self.stats["bilinear.admissible"]
        out["bilinear.admissible.accept_ratio"] = adm[HITS] / adm[CALLS] if adm[CALLS] else 0.0
        return out
