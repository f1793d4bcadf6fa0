"""Per-layer tracing, installed on hermdens from outside the package.

While the cases of a traced pass run, selected hermdens functions and
methods are replaced by timing wrappers; ``uninstall`` puts the originals
back before the pass's outputs are checked.  A
module-level function is replaced in its defining module and in every
loaded module that imported it by name (``hironaka`` imports ``lau_mul``
and ``partitions_in_box`` that way, the package ``__init__`` re-exports most
names), so a call is seen however the name was reached.  A method is
replaced on its class.  A target that no longer exists is skipped and its
metrics are reported as absent, so the benchmark keeps running after a
refactor deletes or merges a function.

Self time is a call's duration minus the time spent in wrapped calls it
made.  Hot leaves (``lau_mul``, ``RatFunc`` construction, ``poly_gcd``,
``normalized_value``) are only aggregated into counts and self time; every
other wrapped call, and each benchmark case, also records a span (name,
start, end, parent span, case) in memory, up to ``SPAN_CAP`` spans.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
import weakref
from collections import namedtuple

from workloads import column_bytes

LEAF, SPAN, GEN = "leaf", "span", "gen"

SPAN_CAP = 200_000

Target = namedtuple("Target", "name module attr mode keyed after", defaults=(False, None))


def _sum_report(stat, args, result):
    report = result[1]
    stat.add("levels", len(report.levels))
    stat.add("terms", sum(r.terms for r in report.levels))
    stat.add("zero_levels", sum(1 for r in report.levels if r.all_zero))


def _oracle_count(stat, args, result):
    m, n, modulus = len(args[0]), len(args[1]), args[2].modulus
    stat.add("nominal", modulus ** (2 * m * n))
    stat.add("solutions", result)
    stat.extra["column_bytes"] = max(stat.extra.get("column_bytes", 0), column_bytes(modulus, m))


TARGETS = (
    Target("qalgebra.lau_mul", "hermdens.qalgebra", "lau_mul", LEAF),
    Target("qalgebra.ratfunc", "hermdens.qalgebra", "RatFunc.__init__", LEAF),
    Target("qalgebra.poly_gcd", "hermdens.qalgebra", "poly_gcd", LEAF),
    Target("partitions.box", "hermdens.partitions", "partitions_in_box", GEN),
    Target("hironaka.alpha", "hermdens.hironaka", "HironakaEngine.alpha", SPAN, keyed=True),
    Target("hironaka.normalized", "hermdens.hironaka", "HironakaEngine.normalized", SPAN),
    Target("relations.normalized_value", "hermdens.relations",
           "ReductionEngine.normalized_value", LEAF, keyed=True),
    Target("relations.verify_relation", "hermdens.relations", "verify_relation", SPAN),
    Target("relations.theorem_terms", "hermdens.relations", "theorem_terms", SPAN),
    Target("relations.generic", "hermdens.relations", "GenericAlphaReducer.alpha_value", SPAN),
    Target("geometry.sum", "hermdens.geometry", "truncated_partition_sum", SPAN,
           after=_sum_report),
    Target("geometry.conjecture", "hermdens.geometry", "conjecture_check", SPAN),
    Target("oracle.count", "hermdens.oracle", "count_representations", SPAN,
           after=_oracle_count),
)


class LayerStat:
    __slots__ = ("calls", "self_s", "keys", "extra")

    def __init__(self, keyed=False):
        self.calls = 0
        self.self_s = 0.0
        self.keys = set() if keyed else None
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Wrappers for every present target, put in place only between install and uninstall."""

    def __init__(self):
        self.stats = {}
        # one frame per active wrapped call: [time in wrapped children, span index]
        self.frames = [[0.0, -1]]
        self.spans = []
        self.dropped_spans = 0
        self.case = None
        self.absent = []
        self._patches = []        # (object, attribute, original, wrapper)
        # engines get serials that are never reused, so a freed engine's memo
        # keys never count as hits on a later engine
        self._serials = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count(1)
        for target in TARGETS:
            found = self._resolve(target)
            if found is None:
                self.absent.append(target.name)
                continue
            holders, attr, original = found
            stat = self.stats[target.name] = LayerStat(target.keyed)
            wrapper = self._wrap(target, stat, original)
            self._patches += [(holder, attr, original, wrapper) for holder in holders]

    # -- installation -------------------------------------------------------

    def install(self):
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original, _ in reversed(self._patches):
            setattr(holder, attr, original)

    @staticmethod
    def _resolve(target):
        """(objects to patch, attribute, original) or None if the target is gone."""
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return None
        owner_name, _, attr = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if isinstance(owner, type) else None
            return None if original is None else ([owner], attr, original)
        original = getattr(module, attr, None)
        if original is None:
            return None
        holders = [mod for mod in list(sys.modules.values())
                   if getattr(mod, "__dict__", {}).get(attr) is original]
        return holders, attr, original

    def _serial(self, engine):
        serial = self._serials.get(engine)
        if serial is None:
            serial = self._serials[engine] = next(self._next_serial)
        return serial

    def _wrap(self, target, stat, fn):
        if target.mode == GEN:
            def counting(*args, **kwargs):
                stat.calls += 1
                for item in fn(*args, **kwargs):
                    stat.add("items", 1)
                    yield item
            return counting
        name, spans = target.name, target.mode == SPAN
        keyed, after = target.keyed, target.after

        def wrapper(*args, **kwargs):
            if keyed:
                stat.keys.add((self._serial(args[0]), tuple(args[1]), tuple(args[2])))
            result = self.timed(name, stat, spans, fn, args, kwargs)
            if after is not None:
                after(stat, args, result)
            return result
        return wrapper

    # -- timing ---------------------------------------------------------------

    def timed(self, name, stat, record_span, fn, args=(), kwargs=None):
        """Call fn, charging its self time to stat and its duration to the caller."""
        frames = self.frames
        parent = frames[-1][1]
        frame = [0.0, parent]
        if record_span:
            if len(self.spans) < SPAN_CAP:
                frame[1] = len(self.spans)
                self.spans.append([name, time.perf_counter(), None, parent, self.case])
            else:
                self.dropped_spans += 1
        frames.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException as exc:
            stat.add("error:" + type(exc).__name__, 1)
            raise
        finally:
            t1 = time.perf_counter()
            frames.pop()
            frames[-1][0] += t1 - t0
            stat.calls += 1
            stat.self_s += t1 - t0 - frame[0]
            if frame[1] != parent:
                self.spans[frame[1]][2] = t1

    def run_case(self, index, fn, *args):
        """Run one benchmark case under its own span; its self time is harness time."""
        self.case = index
        stat = self.stats.setdefault("bench.case", LayerStat())
        return self.timed("bench.case", stat, True, fn, args)

    # -- results --------------------------------------------------------------

    def per_layer(self, passes):
        """Per-pass layer metrics {name: (value, unit)} for present targets."""
        out = {}
        s = self.stats

        def timing(name, prefix=None):
            st = s.get(name)
            if st is not None:
                prefix = prefix or name
                out[f"{prefix}.calls"] = (st.calls / passes, "count")
                out[f"{prefix}.self_s"] = (st.self_s / passes, "s")
            return st

        timing("qalgebra.lau_mul")
        rat = timing("qalgebra.ratfunc")
        gcd = timing("qalgebra.poly_gcd")
        if rat is not None and gcd is not None:
            out["qalgebra.gcd_ratio"] = (_ratio(gcd.calls, rat.calls), "ratio")
        box = s.get("partitions.box")
        if box is not None:
            out["partitions.box_candidates"] = (box.extra.get("items", 0) / passes, "count")
        for name in ("hironaka.alpha", "relations.normalized_value"):
            st = timing(name)
            if st is not None:
                out[f"{name}.hit_ratio"] = (1 - _ratio(len(st.keys), st.calls) if st.calls else 0.0,
                                            "ratio")
        for name in ("hironaka.normalized", "relations.verify_relation",
                     "relations.theorem_terms", "relations.generic", "geometry.conjecture"):
            timing(name)
        st = timing("geometry.sum")
        if st is not None:
            out["geometry.sum.levels"] = (st.extra.get("levels", 0) / passes, "count")
            out["geometry.sum.terms"] = (st.extra.get("terms", 0) / passes, "count")
            out["geometry.sum.zero_level_ratio"] = (
                _ratio(st.extra.get("zero_levels", 0), st.extra.get("levels", 0)), "ratio")
        st = timing("oracle.count")
        if st is not None:
            nominal = st.extra.get("nominal", 0)
            out["oracle.nominal_work"] = (nominal / passes, "count")
            out["oracle.column_bytes"] = (st.extra.get("column_bytes", 0), "B")
            out["oracle.solution_ratio"] = (_ratio(st.extra.get("solutions", 0), nominal), "ratio")
            out["oracle.budget_refusals"] = (
                st.extra.get("error:BudgetExceededError", 0) / passes, "count")
        return out

    def self_shares(self, traced_seconds):
        """Each layer's share of the traced passes' wall time, largest first."""
        shares = {name: _ratio(st.self_s, traced_seconds) for name, st in self.stats.items()
                  if name != "partitions.box"}
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def write_spans(self, path):
        """One JSON array per line: [name, start_s, end_s, parent_index, case]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
