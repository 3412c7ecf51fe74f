"""Per-layer tracing of the chaincomm package from outside the package.

``Tracer.install`` replaces every traced function with a wrapper in each
``chaincomm`` module namespace that binds it: ``from .linalg import rank``
gives ``witnesses``, ``splitting``, ``complexes`` and ``verify`` bindings of
their own, and patching only ``chaincomm.linalg`` would miss those calls.
Methods are patched on the class that defines them.  Spans are kept in memory
as ``[name, start, end, parent]`` lists and written out by ``dump`` at the end
of a run; counters that need the call's arguments or result (cells reduced,
multiply-adds, invertible outcomes) are taken inside the wrappers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# layer -> functions that get a span; "Class.method" names a method.
SPANNED = {
    "matrices": ("Matrix.__mul__", "kron", "hstack", "vstack", "block_matrix", "split_blocks"),
    "linalg": (
        "rref",
        "rank",
        "is_invertible",
        "inverse",
        "kernel_basis",
        "image_basis",
        "complement_basis",
        "solve_linear",
        "sylvester_operator",
        "sylvester_solve",
    ),
    "complexes": (
        "validate_complex",
        "validate_chain_map",
        "cohomology",
        "cohomology_lifts",
        "induced_cohomology_map",
        "stretches",
        "degree_trace",
        "cohomology_trace",
        "trace_report",
        "add",
        "subtract",
        "compose",
        "commutator",
        "scale",
        "homotopy_boundary",
        "chain_map_basis",
    ),
    "splitting": ("split_complex", "extract_blocks", "assemble"),
    "witnesses": (
        "analyze",
        "pointwise_commutator_witness",
        "commutator_witness",
        "commutator_witness_detailed",
        "homotopy_commutator_witness",
        "homotopy_pointwise_witness",
        "prescribed_trace_nullhomotopy",
        "select_separated_pairs",
        "commutator_decomposition",
        "zero_diagonal_basis",
    ),
    "verify": ("verify_commutator", "verify_pointwise", "verify_homotopy_witness"),
    "jsonio": ("parse_document", "serialize_document"),
    "generate": ("random_complex", "random_endomorphism", "random_chain_map", "random_homotopy"),
}

# Called once per matrix entry or per matrix: a span each would swamp the
# run, so these are only counted.
COUNTED = {
    "fields": ("Rationals.normalize", "PrimeField.normalize"),
    "matrices": ("Matrix.__init__",),
}

# Spans whose self time is the witness builders' own work.
BUILDER_SPANS = (
    "witnesses.pointwise_commutator_witness",
    "witnesses.commutator_witness",
    "witnesses.commutator_witness_detailed",
    "witnesses.homotopy_commutator_witness",
    "witnesses.homotopy_pointwise_witness",
    "witnesses.prescribed_trace_nullhomotopy",
)


def _count_rref_cells(counts: Counter, args: tuple, result) -> None:
    counts["linalg.rref_cells"] += args[0].rows * args[0].cols


def _count_madds(counts: Counter, args: tuple, result) -> None:
    left, right = args
    if result is not NotImplemented:
        counts["matrices.matmul_madds"] += left.rows * left.cols * right.cols


def _count_invertible(counts: Counter, args: tuple, result) -> None:
    counts["linalg.is_invertible_true"] += bool(result)


_AFTER_CALL = {
    "linalg.rref": _count_rref_cells,
    "matrices.Matrix.__mul__": _count_madds,
    "linalg.is_invertible": _count_invertible,
}


def chaincomm_modules() -> dict[str, object]:
    return {name: mod for name, mod in sys.modules.items() if name == "chaincomm" or name.startswith("chaincomm.")}


class Tracer:
    """Spans and counters of one traced run; ``install``/``uninstall`` patch
    and restore the package."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: list[object] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span from the benchmark's own code (a request, a set-up round)."""
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        after = _AFTER_CALL.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = chaincomm_modules()
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, names in table.items():
                home = modules[f"chaincomm.{layer}"]
                for qualname in names:
                    name = f"{layer}.{qualname}"
                    if "." in qualname:
                        cls_name, attr = qualname.split(".")
                        owner = getattr(home, cls_name)
                        original = owner.__dict__[attr]
                        self._patch(owner, attr, make(name, original))
                    else:
                        original = getattr(home, qualname)
                        wrapper = make(name, original)
                        for module in modules.values():
                            for key, value in list(vars(module).items()):
                                if value is original:
                                    self._patch(module, key, wrapper)
                    self._originals.append(original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._originals.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Module or class attributes that still hold a traced original."""
        originals = {id(fn) for fn in self._originals}
        found = []
        for mod_name, module in chaincomm_modules().items():
            for key, value in vars(module).items():
                if id(value) in originals:
                    found.append(f"{mod_name}.{key}")
                if isinstance(value, type) and value.__module__ == mod_name:
                    found.extend(
                        f"{mod_name}.{key}.{attr}" for attr, member in vars(value).items() if id(member) in originals
                    )
        return found

    # -- reading -------------------------------------------------------------

    def span_stats(self, begin: int = 0) -> dict[str, dict[str, float]]:
        """Per span name over spans[begin:]: calls, inclusive time of the calls
        not nested in a call of the same name, and self time (duration minus
        the time covered by child spans)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for i in range(begin, len(spans)):
            name, start, end, parent = spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for i in range(begin, len(spans)):
            name, start, end, parent = spans[i]
            entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[i]
            if not self.has_ancestor(i, lambda n: n == name):
                entry["total_s"] += end - start
        return stats

    def has_ancestor(self, index: int, match) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if match(self.spans[parent][0]):
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: k for k, n in enumerate(names)}
        payload = {
            **extra,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[code[n], round(s, 7), round(e, 7), p] for n, s, e, p in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
