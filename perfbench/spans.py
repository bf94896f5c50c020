"""Span recording around fpplab's layer entry points, from outside the package.

Each layer function is wrapped at every name a caller looks it up by: a
function imported by name into another module (``fpplab.verify.brownian_batch``,
``fpplab.three_power.signed_exp_sum``) is replaced there too, and a method is
replaced on its class.  ``Tracer.uninstall`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent, peak_alloc_bytes]``
and only summarised or written out after the traced call returns.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# (span name, defining module, attribute or Class.method, measure peak allocation)
LAYERS = [
    ("market.normals", "fpplab.market", "_normals_for_paths", False),
    ("market.brownian_batch", "fpplab.market", "brownian_batch", False),
    ("market.evolve_log_wealth_batch", "fpplab.market", "evolve_log_wealth_batch", False),
    ("market.sharpe_ratio", "fpplab.market", "sharpe_ratio", False),
    ("mixture.state_paths", "fpplab.mixture", "MixtureFpp.state_paths", False),
    ("mixture.utility_paths", "fpplab.mixture", "MixtureFpp.utility_paths", True),
    ("mixture.signed_exp_sum", "fpplab.mixture", "signed_exp_sum", False),
    ("three_power.accumulators", "fpplab.three_power", "ThreePowerFpp.accumulators", False),
    ("three_power.utility_paths", "fpplab.three_power", "ThreePowerFpp.utility_paths", True),
    ("three_power.three_power_value", "fpplab.three_power", "three_power_value", False),
    ("verify.martingale_test", "fpplab.verify", "martingale_test", False),
    ("verify.structure_scan", "fpplab.verify", "structure_scan", False),
    ("pooling._greedy_z_batch", "fpplab.pooling", "_greedy_z_batch", False),
    ("pooling._scan_local_maxima", "fpplab.pooling", "_scan_local_maxima", False),
    ("pooling.compare_strategies", "fpplab.pooling", "compare_strategies", False),
    ("cli.csv_write", "fpplab.cli", "_write_csv", False),
    ("cli.csv_write", "fpplab.market", "write_paths_csv", False),
    ("config.load_config", "fpplab.config", "load_config", False),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []  # (owner, attribute, original)

    def _wrap(self, name, fn, measure_alloc):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            if measure_alloc:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if measure_alloc:
                    span[4] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()

        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "fpplab" or key.startswith("fpplab."))]
        for name, module_name, attr, measure_alloc in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, measure_alloc))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, measure_alloc)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def summarise(spans):
    """Per span name: call count, inclusive and self seconds, peak allocation."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _, peak) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "peak_alloc_mb": 0.0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child_time[i]
        if peak is not None:
            agg["peak_alloc_mb"] = max(agg["peak_alloc_mb"], peak / 2 ** 20)
    return out
