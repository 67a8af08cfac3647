"""Spans around calls into mertenskit's public functions.

Used only by traced rounds.  Each name is patched in every mertenskit
module that looks it up (so `mertenskit.cli.verify_case` and
`mertenskit.identities.convolution_coeffs` are both replaced), and
methods are patched on their class.  Spans are [name, start, end,
parent] lists kept in memory; a span's self time is its duration minus
the time its direct children cover.  Rounds run single-threaded, so
spans nest strictly.
"""

import math
import sys
import time
import weakref

# Metrics the traced run reports.  Each `<span>_s` is the summed self
# time of that span; the rest are counts taken at the same boundaries.
SELF_TIME_SPANS = (
    "arith.sieve", "sequences.cache_build", "sequences.prefix_table",
    "sequences.sublinear", "exact.scaled_sums", "exact.lcm",
    "identities.exact_case", "identities.float_case",
    "identities.convolution", "reductions.fsum", "gamma.series",
    "induction.square_table", "induction.rows", "cli.self",
)
COUNTS = (
    "arith.sieve_values", "sequences.prefix_tables",
    "sequences.prefix_entries", "sequences.sublinear_calls",
    "exact.scaled_sums_built", "exact.lcm_calls", "identities.exact_cases",
    "identities.float_cases", "identities.convolution_entries",
    "reductions.fsum_calls", "reductions.fsum_terms", "gamma.points",
    "induction.square_table_values", "induction.rows",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._open = []
        self._patched = []
        self._tables = {}

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def wrap(self, name, fn, on_result=None):
        """`fn` recorded as span `name`; on_result(span, args, result) may
        count work and rename the span."""
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------

    def _patch_name(self, original, wrapper) -> None:
        found = False
        for modname, module in list(sys.modules.items()):
            if modname != "mertenskit" and not modname.startswith("mertenskit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"no mertenskit module looks up {original!r}")

    def _patch_method(self, cls, attr, wrapper) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        import mertenskit.arith as arith
        import mertenskit.exact as exact
        import mertenskit.gamma as gamma
        import mertenskit.identities as identities
        import mertenskit.induction as induction
        import mertenskit.sequences as sequences

        def sieved(span, args, table):
            self.add("arith.sieve_values", len(table))

        def fresh_table(span, args, table):
            # A prefix accessor returns the cached array on a hit; a new
            # array object is a table built by this call.
            ref = self._tables.get(id(table))
            if ref is None or ref() is not table:
                self._tables[id(table)] = weakref.ref(table)
                self.add("sequences.prefix_tables")
                self.add("sequences.prefix_entries", len(table))

        def case_kind(span, args, residual):
            span[0] = f"identities.{residual.kind}_case"
            self.add(f"identities.{residual.kind}_cases")

        def counter(key, amount=lambda args, result: 1):
            return lambda span, args, result: self.add(key, amount(args, result))

        def fsum(iterable):
            terms = iterable if hasattr(iterable, "__len__") else list(iterable)
            self.add("reductions.fsum_calls")
            self.add("reductions.fsum_terms", len(terms))
            return math.fsum(terms)

        w = self.wrap
        for fn in (arith.mobius_sieve, arith.mobius_segment):
            self._patch_name(fn, w("arith.sieve", fn, sieved))
        self._patch_name(sequences.mertens_sublinear, w(
            "sequences.sublinear", sequences.mertens_sublinear,
            counter("sequences.sublinear_calls")))
        self._patch_name(exact.lcm_upto, w(
            "exact.lcm", exact.lcm_upto, counter("exact.lcm_calls")))
        self._patch_name(identities.verify_case, w(
            "identities.case", identities.verify_case, case_kind))
        self._patch_name(identities.convolution_coeffs, w(
            "identities.convolution", identities.convolution_coeffs,
            counter("identities.convolution_entries",
                    lambda args, cc: len(cc.coeffs))))
        self._patch_name(math.fsum, w("reductions.fsum", fsum))
        self._patch_name(gamma.gamma_series, w(
            "gamma.series", gamma.gamma_series, counter("gamma.points")))
        self._patch_name(induction.mertens_square_table, w(
            "induction.square_table", induction.mertens_square_table,
            counter("induction.square_table_values",
                    lambda args, result: (len(result[0]) - 1) ** 2)))
        self._patch_name(induction.check_induction_step, w(
            "induction.rows", induction.check_induction_step,
            counter("induction.rows")))

        cache_cls = sequences.SequenceCache
        self._patch_method(cache_cls, "__init__", w(
            "sequences.cache_build", cache_cls.__init__))
        for attr in ("oscillatory_float", "harmonic_float"):
            self._patch_method(cache_cls, attr, w(
                "sequences.prefix_table", cache_cls.__dict__[attr], fresh_table))
        self._patch_method(exact.ScaledSums, "__init__", w(
            "exact.scaled_sums", exact.ScaledSums.__init__,
            counter("exact.scaled_sums_built")))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- results ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = dict.fromkeys(SELF_TIME_SPANS, 0.0)
        for (name, start, end, parent), child_time in zip(self.spans, covered):
            if name in totals:
                totals[name] += (end - start) - child_time
        return totals

    def layer_metrics(self) -> dict[str, float]:
        out = {f"{name}_s": t for name, t in self.self_times().items()}
        out.update(self.counts)
        values = self.counts["arith.sieve_values"]
        out["arith.sieve_ns_per_value"] = (
            1e9 * out["arith.sieve_s"] / values if values else 0.0)
        return out
