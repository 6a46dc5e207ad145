"""Per-layer host-time attribution from a profiled run.

The layers are the ``repro.<package>`` packages (with ``sim.trains``,
``sim.parallel`` and the ``cluster`` sub-modules split out, because
they are the parts one workload runs and another bypasses).  A
layer's *self time* is the profiler's inline time of its functions: time
not spent in any Python function they call.  C builtins are not
profiled, so their time stays with the calling function; standard
library code is charged to the layer that called it, following the
profiler's per-caller edges.  A layer's *calls* are calls into its
public functions (names without a leading underscore, constructors
included) from code outside the layer.
"""

from __future__ import annotations

import cProfile
import os
import pstats

import repro

LAYERS = (
    "sim", "sim.trains", "sim.parallel",
    "osiris", "hw", "driver", "host", "xkernel", "net",
    "atm", "topology",
    "cluster", "cluster.backpressure", "cluster.sharded",
    "cluster.boundary",
    "bench",
)
# Packages every workload leaves switched off; their cost, if any, is
# reported as one share.
OFF = ("faults", "recovery", "fbufs", "adc", "baselines", "analysis")
OTHER = "other"

_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> str:
    """Layer owning a source file; ``""`` for code outside ``repro``."""
    if not filename.startswith(_ROOT):
        return ""
    module = filename[len(_ROOT):-3].replace(os.sep, ".")
    if module.endswith(".__init__"):
        module = module[:-len(".__init__")]
    best = ""
    for layer in LAYERS:
        if (module == layer or module.startswith(layer + ".")) \
                and len(layer) > len(best):
            best = layer
    if best:
        return best
    return "off" if module.split(".")[0] in OFF else OTHER


class LayerProfile:
    """Profiles a callable and reduces the result to per-layer shares."""

    def __init__(self) -> None:
        # C builtins are not profiled, so their time counts as the
        # calling function's own: charged to the calling layer.
        self.profiler = cProfile.Profile(builtins=False)

    def run(self, fn):
        self.profiler.enable()
        try:
            return fn()
        finally:
            self.profiler.disable()

    def shares(self) -> dict:
        """``<layer>.self_pct`` and ``<layer>.calls`` for every layer."""
        stats = pstats.Stats(self.profiler).stats
        own = {func: layer_of(func[0]) for func in stats}
        memo: dict = {}

        def charge(func, depth=0) -> dict:
            """Layer weights (summing to 1) that ``func``'s time goes to."""
            if own[func]:
                return {own[func]: 1.0}
            if func in memo:
                return memo[func]
            memo[func] = {OTHER: 1.0}           # cycle guard
            callers = stats[func][4]
            total = sum(edge[2] for edge in callers.values())
            if total <= 0.0 or depth > 50:
                return memo[func]
            weights: dict = {}
            for caller, edge in callers.items():
                if caller not in stats:
                    continue
                for layer, w in charge(caller, depth + 1).items():
                    weights[layer] = (weights.get(layer, 0.0)
                                      + w * edge[2] / total)
            memo[func] = weights or {OTHER: 1.0}
            return memo[func]

        self_time: dict = {}
        calls: dict = {}
        for func, (_cc, _nc, tt, _ct, callers) in stats.items():
            for layer, w in charge(func).items():
                self_time[layer] = self_time.get(layer, 0.0) + w * tt
            layer = own[func]
            name = func[2]
            if not layer or (name.startswith("_")
                             and not name.startswith("__")):
                continue
            for caller, edge in callers.items():
                if own.get(caller) != layer:
                    calls[layer] = calls.get(layer, 0) + edge[0]
        total = sum(self_time.values()) or 1.0
        out = {}
        for layer in LAYERS + ("off", OTHER):
            out[f"{layer}.self_pct"] = 100.0 * self_time.get(layer, 0.0) \
                / total
            if layer in LAYERS:
                out[f"{layer}.calls"] = calls.get(layer, 0)
        return out
