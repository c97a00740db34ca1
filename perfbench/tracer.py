"""Outside-in span tracer for hqcf.

The tracer wraps functions of the program from the benchmark's own code;
nothing under ``src/`` knows about it.  Each call of a wrapped function
records one span ``[name_id, parent_index, start, end]`` in memory, where
the parent is the span of the innermost wrapped call that was running.
Self time is a span's duration minus the durations of its direct children,
so the self times of all spans add up to the durations of the root spans.

Wrapping replaces every reference an ``hqcf.*`` module holds to the
original function object: the defining module's attribute, re-exports
such as ``from .rootcf import expand_root`` in ``quartic`` and the package
``__init__``, and values of module-level dicts such as the CLI's dispatch
table.  Methods are replaced on their class, which every caller shares.

``hqcf.fields`` is deliberately not wrapped: its per-element calls number
in the tens of millions per workload, so a wrapper would mostly measure
itself.  Their cost lands in the self time of the polynomial operation
that called them.
"""

import functools
import inspect
import sys
import time

MODULES = ("polynomials", "laurent", "cf", "rootcf", "perfect", "quartic", "cli")

# Methods worth a span.  Cheap accessors (degree, is_zero, the zero/one
# constructors) stay unwrapped: they run millions of times and their cost
# belongs to the caller.
METHODS = {
    ("polynomials", "Polynomial"): (
        "__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__divmod__",
        "scaled", "pow_frobenius", "monic", "format", "to_json_dict",
    ),
    ("laurent", "Laurent"): (
        "__add__", "__sub__", "__mul__", "scaled", "frobenius", "truncate",
        "first_difference",
    ),
    ("cf", "ContinuedFraction"): (
        "continuants", "value", "value_series", "tail", "to_json_dict",
    ),
}

# Private functions wrapped under a public span name.
PRIVATE = {("cli", "_print_expansion"): "print"}

# Work buckets: mul by the shorter operand's length, divmod by the divisor's.
MID_MUL, LARGE_MUL = 32, 1024
TINY_DIVISOR = 16


class Tracer:
    """Collects spans and work counters while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []  # name id -> span name
        self.spans = []  # [name_id, parent_index, start, end], in start order
        self.counters = {}  # counter name -> int
        self.peak_len = 0
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original)
        self.wrapped = {}  # original function -> wrapper

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, fn, name: str, meter=None):
        """Return a wrapper of fn that records a span named name.

        meter, if given, is called with the positional arguments before the
        call to count the work the call receives; its cost is charged to the
        caller's span, not to this one.
        """
        sid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if meter is not None:
                meter(args)
            rec = [sid, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def _count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _meter_for(self, name: str):
        """Work counters for the polynomial kernel operations."""
        count = self._count

        def seen(*lengths):
            top = max(lengths)
            if top > self.peak_len:
                self.peak_len = top

        if name in ("polynomials.add", "polynomials.sub"):
            def meter(args):
                la, lb = len(args[0].coeffs), len(getattr(args[1], "coeffs", ()))
                count(name + ".coeffs_in", la + lb)
                seen(la, lb)
            return meter
        if name == "polynomials.mul":
            def meter(args):
                la, lb = len(args[0].coeffs), len(getattr(args[1], "coeffs", ()))
                count(name + ".coeffs_in", la + lb)
                seen(la, lb)
                short = min(la, lb)
                count(name + (".small" if short < MID_MUL else ".mid" if short < LARGE_MUL else ".large"))
            return meter
        if name == "polynomials.divmod":
            def meter(args):
                la, lb = len(args[0].coeffs), len(getattr(args[1], "coeffs", ()))
                count(name + ".coeffs_in", la + lb)
                seen(la, lb)
                count(name + (".tiny_divisor" if lb < TINY_DIVISOR else ".big_divisor"))
            return meter
        if name in ("polynomials.scaled", "polynomials.pow_frobenius", "polynomials.format"):
            def meter(args):
                n = len(args[0].coeffs)
                count(name + ".coeffs_in", n)
                seen(n)
            return meter
        return None

    def _hqcf_modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "hqcf" or n.startswith("hqcf."))]

    def _rebind(self, original, wrapper):
        """Point every hqcf module attribute (and module-level dict value)
        that holds original at wrapper."""
        for mod in self._hqcf_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patches.append((value, key, original))
                            value[key] = wrapper

    def targets(self):
        """(owner, attribute, span name) of everything the tracer wraps."""
        out = []
        for short in MODULES:
            mod = sys.modules[f"hqcf.{short}"]
            for attr, value in vars(mod).items():
                public = not attr.startswith("_") or (short, attr) in PRIVATE
                if inspect.isfunction(value) and value.__module__ == mod.__name__ and public:
                    label = PRIVATE.get((short, attr), attr)
                    out.append((mod, attr, f"{short}.{label}"))
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"hqcf.{short}"], cls_name)
            for attr in methods:
                # dunder methods are named by their operation: __add__ -> add
                out.append((cls, attr, f"{short}.{attr.strip('_')}"))
        return out

    def install(self):
        import hqcf.cli  # noqa: F401  (loads every traced module)

        for owner, attr, name in self.targets():
            original = vars(owner)[attr]
            if original in self.wrapped:
                continue
            wrapper = self.wrap(original, name, self._meter_for(name))
            self.wrapped[original] = wrapper
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            self._rebind(original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self.wrapped.clear()

    # -- results -----------------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span, by span index."""
        spans = self.spans
        own = [end - start for _, _, start, end in spans]
        for _, parent, start, end in spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self, total_names=()) -> dict:
        """calls and self_s for every span name, total_s (outermost calls
        only, so recursion is not counted twice) for the names asked for,
        and the work counters."""
        spans, names = self.spans, self.names
        own = self.self_times()
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        total = [0.0] * len(names)
        want = {i for i, n in enumerate(names) if n in set(total_names)}
        for i, (sid, parent, start, end) in enumerate(spans):
            calls[sid] += 1
            self_s[sid] += own[i]
            if sid in want:
                p = parent
                while p >= 0 and spans[p][0] != sid:
                    p = spans[p][1]
                if p < 0:
                    total[sid] += end - start
        out = {}
        for sid, name in enumerate(names):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += calls[sid]
            entry["self_s"] += self_s[sid]
            entry["total_s"] += total[sid]
        return {"spans": out, "counters": dict(self.counters), "peak_len": self.peak_len}

    def write_spans(self, path: str):
        """Write every span as tab-separated text, times relative to the first span."""
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index\tname\tparent\tstart_s\tend_s\n")
            for i, (sid, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[sid]}\t{parent}\t{start - base:.9f}\t{end - base:.9f}\n")
