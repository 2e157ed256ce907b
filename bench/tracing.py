"""Out-of-process-code tracing: spans around calls into each gspurify module.

`Tracer.install()` wraps the public functions of every layer module (plus
the few private ones a metric needs) and rebinds each wrapper under every
name that holds the original, in every loaded `gspurify` module, so a call
is traced whichever module it goes through (`gspurify.analysis.p1_step` as
well as `gspurify.protocol.p1_step`). Nothing under `src/` changes.

Spans are kept in memory as parallel arrays (name, parent, start, end,
value) and only aggregated and written out after the pass. A name that no
longer exists is skipped, and each metric that needs it is reported as
absent (None) instead of failing.
"""

from __future__ import annotations

import gzip
import inspect
import math
import statistics
import sys
import time
from array import array

LAYERS = ("graphs", "transforms", "states", "protocol", "analysis", "oracle", "selfcheck", "cli")

# Private names that per-layer metrics read: the multiplier caches and the
# trajectory loops of the threshold predicates.
PRIVATE = {
    "protocol": ("_depolarize_multiplier", "_measure_flip_multiplier"),
    "analysis": ("_fixed_point_full", "_climbs_to", "_gains_and_holds"),
}

# Bit-mask helpers called once per inner iteration. Their cost stays in
# their callers' self time; wrapping them would double the tracing cost.
SKIP = {"transforms.bit_positions", "states.pauli_flip_mask", "graphs.syndrome_parts"}

MULTIPLIERS = ("protocol._depolarize_multiplier", "protocol._measure_flip_multiplier")
TRAJECTORIES = ("protocol.run_schedule", "analysis._fixed_point_full", "analysis._climbs_to",
                "analysis._gains_and_holds")
STEPS = ("protocol.p1_step", "protocol.p2_step")
CHANNELS = ("states.apply_pauli_channel", "states.depolarizing_channel", "states.bitflip_b_noise")
INPUT_BUILDERS = ("states.prepared_with_channel_noise", "states.global_white", "states.rho_a_family",
                  "states.pure_target")

# Per-layer metrics: name -> unit. The order is the output order.
UNITS = {
    "graphs.build_s": "s",
    "graphs.self_s": "s",
    "transforms.wht_calls": "count",
    "transforms.wht_self_s": "s",
    "transforms.wht_s_p50": "s",
    "transforms.wht_bytes_computed": "B",
    "transforms.wht_gbps": "GB/s",
    "states.channel_calls": "count",
    "states.channel_self_s": "s",
    "states.bitflip_s": "s",
    "states.input_build_s": "s",
    "states.self_s": "s",
    "protocol.steps": "count",
    "protocol.step_s": "s",
    "protocol.step_self_s": "s",
    "protocol.trajectory_s": "s",
    "protocol.mult_build_s": "s",
    "protocol.mult_cache_hits": "count",
    "protocol.mult_cache_misses": "count",
    "protocol.mult_cache_hit_ratio": "ratio",
    "protocol.self_s": "s",
    "analysis.searches": "count",
    "analysis.rounds": "count",
    "analysis.rounds_per_search": "count",
    "analysis.search_s_p50": "s",
    "analysis.self_s": "s",
    "oracle.dense_step_calls": "count",
    "oracle.dense_step_s": "s",
    "oracle.twirl_s": "s",
    "oracle.self_s": "s",
    "selfcheck.checks": "count",
    "selfcheck.self_s": "s",
    "cli.self_s": "s",
}


def _wht_bytes(fn):
    """Hook for wht_bits: bytes computed, 2^n doubles read and written per
    selected bit. None when the signature no longer has (n, mask)."""
    params = list(inspect.signature(fn).parameters)
    if "n" not in params or "mask" not in params:
        return None
    i_n, i_mask = params.index("n"), params.index("mask")

    def hook(args, kwargs, result):
        n = args[i_n] if len(args) > i_n else kwargs["n"]
        mask = args[i_mask] if len(args) > i_mask else kwargs["mask"]
        return float((1 << n) * 8 * 2 * int(mask).bit_count())

    return hook


def _cache_miss(fn):
    if not hasattr(fn, "cache_info"):
        return None
    state = {"misses": fn.cache_info().misses}

    def hook(args, kwargs, result):
        misses = fn.cache_info().misses
        missed, state["misses"] = misses > state["misses"], misses
        return 1.0 if missed else 0.0

    return hook


def _attr_hook(attr):
    def make(fn):
        def hook(args, kwargs, result):
            return float(getattr(result, attr))
        return hook
    return make


def _len_hook(fn):
    return lambda args, kwargs, result: float(len(result))


HOOKS = {
    "transforms.wht_bits": _wht_bytes,
    "protocol._depolarize_multiplier": _cache_miss,
    "protocol._measure_flip_multiplier": _cache_miss,
    "analysis.threshold_report": _attr_hook("rounds_used"),
    "selfcheck.run_equivalence_suite": _len_hook,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.originals: dict[str, object] = {}
        self.hooked: set[str] = set()  # names whose span value a hook fills
        self.name_ids = array("i")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.values = array("d")
        self._stack = [-1]

    @classmethod
    def install(cls, package: str = "gspurify") -> "Tracer":
        tracer = cls()
        targets = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") and inspect.isfunction(obj)
                if (public and obj.__module__ == mod.__name__) or attr in PRIVATE.get(layer, ()):
                    if callable(obj) and f"{layer}.{attr}" not in SKIP:
                        targets[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {}
        for key, (name, fn) in targets.items():
            hook = HOOKS[name](fn) if name in HOOKS else None
            if hook is not None:
                tracer.hooked.add(name)
            wrappers[key] = tracer._wrap(name, fn, hook)
            tracer.originals[name] = fn
        for modname, mod in list(sys.modules.items()):
            if modname == package or modname.startswith(package + "."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        setattr(mod, attr, wrappers[id(obj)])
        return tracer

    def _wrap(self, name, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends, values = (
            self.name_ids, self.parents, self.starts, self.ends, self.values)
        stack = self._stack
        clock = time.perf_counter
        nan = math.nan

        def wrapper(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(nan)
            values.append(nan)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    values[idx] = hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the value stays NaN and its metric reads absent
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- aggregation, after the pass ------------------------------------

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,parent,start_s,end_s,value\n")
            for i, (nid, parent, t0, t1, v) in enumerate(
                    zip(self.name_ids, self.parents, self.starts, self.ends, self.values)):
                fh.write(f"{i},{self.names[nid]},{parent},{t0:.9f},{t1:.9f},{'' if math.isnan(v) else repr(v)}\n")

    def metrics(self) -> dict[str, float | None]:
        """Per-layer metrics from the recorded spans; None where the traced
        name no longer exists."""
        durs = [t1 - t0 for t0, t1 in zip(self.starts, self.ends)]
        child = [0.0] * len(durs)
        by_name: dict[str, list[int]] = {name: [] for name in self.names}
        for i, (nid, parent) in enumerate(zip(self.name_ids, self.parents)):
            by_name[self.names[nid]].append(i)
            if parent >= 0:
                child[parent] += durs[i]

        def have(*names):
            return all(n in by_name for n in names)

        def select(names):
            return [i for n in names for i in by_name.get(n, ())]

        def total(names):
            return sum(durs[i] for i in select(names))

        def self_time(names):
            return sum(durs[i] - child[i] for i in select(names))

        def outer(names):
            """Time in spans of names that no other span of names encloses."""
            wanted = {nid for nid, n in enumerate(self.names) if n in names}
            acc = 0.0
            for i in select(names):
                parent = self.parents[i]
                while parent >= 0 and self.name_ids[parent] not in wanted:
                    parent = self.parents[parent]
                if parent < 0:
                    acc += durs[i]
            return acc

        def median(names):
            picked = [durs[i] for i in select(names)]
            return statistics.median(picked) if picked else 0.0

        def value_sum(names):
            """Sum of hook values; None when spans exist but none has one."""
            picked = [self.values[i] for i in select(names)]
            known = [v for v in picked if not math.isnan(v)]
            return float(sum(known)) if known or not picked else None

        out: dict[str, float | None] = dict.fromkeys(UNITS)
        for mod in ("graphs", "states", "protocol", "analysis", "oracle", "selfcheck", "cli"):
            names = [n for n in self.names if n.startswith(mod + ".")]
            if names:
                out[f"{mod}.self_s"] = self_time(names)
                if mod == "graphs":
                    out["graphs.build_s"] = outer(names)
        wht = "transforms.wht_bits"
        if have(wht):
            out["transforms.wht_calls"] = float(len(by_name[wht]))
            out["transforms.wht_self_s"] = self_time([wht])
            out["transforms.wht_s_p50"] = median([wht])
            moved, busy = value_sum([wht]), total([wht])
            if wht in self.hooked and moved is not None:
                out["transforms.wht_bytes_computed"] = moved
                out["transforms.wht_gbps"] = moved / busy / 1e9 if busy > 0 else 0.0
        if have("states.apply_pauli_channel"):
            out["states.channel_calls"] = float(len(by_name["states.apply_pauli_channel"]))
        if have(*CHANNELS):
            out["states.channel_self_s"] = self_time(CHANNELS)
            out["states.bitflip_s"] = outer(["states.bitflip_b_noise"])
        if have(*INPUT_BUILDERS):
            out["states.input_build_s"] = outer(INPUT_BUILDERS)
        if have(*STEPS):
            out["protocol.steps"] = float(len(select(STEPS)))
            out["protocol.step_s"] = outer(STEPS)
            out["protocol.step_self_s"] = self_time(STEPS)
        if have(*TRAJECTORIES):
            out["protocol.trajectory_s"] = outer(TRAJECTORIES)
        caches = [self.originals.get(n) for n in MULTIPLIERS]
        if all(hasattr(fn, "cache_info") for fn in caches):
            out["protocol.mult_build_s"] = sum(durs[i] for i in select(MULTIPLIERS) if self.values[i] == 1.0)
            hits = float(sum(fn.cache_info().hits for fn in caches))
            misses = float(sum(fn.cache_info().misses for fn in caches))
            out["protocol.mult_cache_hits"] = hits
            out["protocol.mult_cache_misses"] = misses
            out["protocol.mult_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        report = "analysis.threshold_report"
        if have(report):
            searches, rounds = float(len(by_name[report])), value_sum([report])
            out["analysis.searches"] = searches
            out["analysis.rounds"] = rounds
            if rounds is not None:
                out["analysis.rounds_per_search"] = rounds / searches if searches else 0.0
            out["analysis.search_s_p50"] = median([report])
        if have("oracle.dense_protocol_step"):
            out["oracle.dense_step_calls"] = float(len(by_name["oracle.dense_protocol_step"]))
            out["oracle.dense_step_s"] = outer(["oracle.dense_protocol_step"])
        if have("oracle.graph_basis_twirl"):
            out["oracle.twirl_s"] = outer(["oracle.graph_basis_twirl"])
        if have("selfcheck.run_equivalence_suite"):
            out["selfcheck.checks"] = value_sum(["selfcheck.run_equivalence_suite"])
        return out
