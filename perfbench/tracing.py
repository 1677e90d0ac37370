"""Per-layer tracing of delayedcsit from outside the package.

The tracer rebinds public functions of the seven modules to timing
wrappers, in the defining module and wherever another module imported
them by name, and restores the originals on exit.  Each call becomes a
span ``(group, start, end, parent, outermost)`` kept in memory; the
per-layer metrics are computed from the spans once the traced round has
ended.  Spans are read from the clock the tracer is given, so the
benchmark can leave out the time its host-speed sampler takes.

A probe whose target no longer exists (a later refactor deleted or
renamed it) is skipped and listed in ``Tracer.skipped``; the metrics it
fed then read 0.
"""

import sys
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

PACKAGE = "delayedcsit"


def _outermost_result(tracer, result):
    """Count the sizes of a scheme trace returned by an outermost builder."""
    c = tracer.counts
    c["schemes.traces"] += 1
    symbols = getattr(result, "symbols_delivered", 0)
    c["schemes.slots"] += getattr(result, "total_slots", 0)
    c["schemes.symbols"] += symbols
    equations = sum(len(getattr(st, "equations", ()))
                    for st in getattr(result, "states", ()))
    c["ledger.equations"] += equations
    c["ledger.dense_bytes"] += equations * symbols * 16


def _count_decode(tracer, args, kwargs, result):
    tracer.counts["ledger.decode_checks"] += 1
    if not result:
        tracer.counts["ledger.decode_failures"] += 1


def _count_rank(tracer, args, kwargs, result):
    m, n = np.shape(args[0] if args else kwargs["a"])
    tracer.counts["numerics.rank_calls"] += 1
    tracer.counts["numerics.rank_flops"] += 4 * m * n * min(m, n)


def _count_trials(tracer, args, kwargs, result):
    tracer.counts["ratesim.trials"] += args[2] if len(args) > 2 else kwargs["trials"]


def _count(name):
    def hook(tracer, args, kwargs, result):
        tracer.counts[name] += 1
    return hook


def _region_mode(args, kwargs):
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "sorted")
    return f"region.{mode}"


@dataclass(frozen=True)
class Probe:
    """One wrapped function.

    ``owner`` is a module name or ``module:Class``; ``group`` names the
    layer bucket its time goes to (a callable picks it from the call's
    arguments); ``hook`` updates counts after each call;
    ``outermost_hook`` runs only when no call of the same group encloses
    this one.
    """

    owner: str
    attr: str
    group: object
    hook: object = None
    outermost_hook: object = None


_BUILDERS = ("run_square_scheme", "run_alt22", "run_mat23_suboptimal",
             "run_opt23", "run_order_j_delivery", "tdma_trace", "_run_chain")

PROBES = (
    *(Probe("schemes", name, "schemes.build",
            outermost_hook=lambda t, a, k, r: _outermost_result(t, r))
      for name in _BUILDERS),
    Probe("schemes:SchemeTrace", "to_dict", "schemes.serialize"),
    Probe("schemes:SchemeTrace", "to_json", "schemes.serialize"),
    Probe("ledger", "transmit_slot", "ledger.build"),
    Probe("ledger", "combine", "ledger.build"),
    Probe("ledger", "random_combination", "ledger.build"),
    Probe("ledger", "can_decode", "ledger.decode", hook=_count_decode),
    Probe("ledger", "noise_covariance", "ledger.noise"),
    Probe("ledger:ReceiverState", "coefficient_matrix", "ledger.read"),
    Probe("numerics", "numerical_rank", "numerics.rank", hook=_count_rank),
    Probe("numerics", "logdet_capacity", "numerics.logdet",
          hook=_count("numerics.logdet_calls")),
    Probe("numerics", "haar_unitary", "numerics.haar",
          hook=_count("numerics.haar_calls")),
    Probe("numerics", "sample_channel", "numerics.channel",
          hook=_count("numerics.channel_draws")),
    Probe("ratesim", "simulate_rates", "ratesim.simulate", hook=_count_trials),
    Probe("ratesim", "receiver_rate", "ratesim.rate",
          hook=_count("ratesim.rate_calls")),
    Probe("ratesim", "fit_dof_slope", "ratesim.fit"),
    Probe("region", "in_region", _region_mode, hook=_count("region.calls")),
    *(Probe("region", name, f"region.{short}", hook=_count("region.calls"))
      for name, short in (("tight_permutations", "tight"),
                          ("decompose_time_sharing", "decompose"),
                          ("combination_value", "other"),
                          ("symmetric_corner", "other"),
                          ("corner_candidates", "other"))),
    *(Probe("dof_calc", name, "dof_calc", hook=_count("dof_calc.calls"))
      for name in ("nonsquare_recursion", "dof_upper", "nonsquare_closed_form",
                   "identity_check", "dof_square", "dof_lower", "harmonic",
                   "hockey_stick", "coherence_dof", "outer_bound_lhs")),
    Probe("cli", "main", "cli"),
)

#: Per-layer metrics in report order: name -> (unit, kind, group).
#: ``busy`` sums the outermost spans of the group, ``self`` sums the time
#: of its spans not covered by child spans, ``count`` reads the counter
#: of the metric's name.
LAYER_METRICS = {
    "schemes.build_ms": ("ms", "busy", "schemes.build"),
    "schemes.traces": ("count", "count", None),
    "schemes.slots": ("count", "count", None),
    "schemes.symbols": ("count", "count", None),
    "schemes.serialize_ms": ("ms", "busy", "schemes.serialize"),
    "cli.self_ms": ("ms", "self", "cli"),
    "cli.bytes_out": ("bytes", "count", None),
    "ledger.build_ms": ("ms", "self", "ledger.build"),
    "ledger.equations": ("count", "count", None),
    "ledger.dense_bytes": ("bytes", "count", None),
    "ledger.read_ms": ("ms", "busy", "ledger.read"),
    "ledger.noise_ms": ("ms", "busy", "ledger.noise"),
    "ledger.decode_ms": ("ms", "self", "ledger.decode"),
    "ledger.decode_checks": ("count", "count", None),
    "ledger.decode_failures": ("count", "count", None),
    "numerics.rank_calls": ("count", "count", None),
    "numerics.rank_ms": ("ms", "busy", "numerics.rank"),
    "numerics.rank_flops": ("flop", "count", None),
    "numerics.logdet_calls": ("count", "count", None),
    "numerics.logdet_ms": ("ms", "busy", "numerics.logdet"),
    "numerics.haar_calls": ("count", "count", None),
    "numerics.haar_ms": ("ms", "busy", "numerics.haar"),
    "numerics.channel_draws": ("count", "count", None),
    "ratesim.rate_calls": ("count", "count", None),
    "ratesim.rate_ms": ("ms", "busy", "ratesim.rate"),
    "ratesim.fit_ms": ("ms", "busy", "ratesim.fit"),
    "ratesim.trials": ("count", "count", None),
    "region.calls": ("count", "count", None),
    "region.sorted_ms": ("ms", "busy", "region.sorted"),
    "region.exhaustive_ms": ("ms", "busy", "region.exhaustive"),
    "region.tight_ms": ("ms", "busy", "region.tight"),
    "region.decompose_ms": ("ms", "busy", "region.decompose"),
    "dof_calc.calls": ("count", "count", None),
    "dof_calc.ms": ("ms", "busy", "dof_calc"),
}


class Tracer:
    """Context manager that traces every probe while it is active."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []          # (group, start_s, end_s, parent, outermost)
        self.counts = Counter()
        self.skipped = []
        self._stack = []
        self._depth = Counter()
        self._restore = []

    def _wrap(self, probe, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            group = probe.group(args, kwargs) if callable(probe.group) else probe.group
            outermost = depth[group] == 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[group] -= 1
                stack.pop()
                spans[idx] = (group, start, end, parent, outermost)
            if probe.hook is not None:
                probe.hook(tracer, args, kwargs, result)
            if outermost and probe.outermost_hook is not None:
                probe.outermost_hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", probe.attr)
        return traced

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for probe in PROBES:
            mod_name, _, cls_name = probe.owner.partition(":")
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, probe.attr, None) if owner is not None else None
            if original is None:
                self.skipped.append(f"{probe.owner}.{probe.attr}")
                continue
            wrapper = self._wrap(probe, original)
            targets = [owner] if cls_name else modules
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, name, original))
                        setattr(target, name, wrapper)
        return self

    def __exit__(self, *exc):
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()
        return False

    def count(self, name, n):
        """Add ``n`` to a counter measured by the caller, not by a probe."""
        self.counts[name] += n

    def layer_metrics(self, scale) -> dict:
        """Per-layer metrics of everything traced so far; times are
        multiplied by ``scale``."""
        busy = defaultdict(float)
        child = defaultdict(float)
        for group, start, end, parent, outermost in self.spans:
            if outermost:
                busy[group] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for idx, (group, start, end, _, _) in enumerate(self.spans):
            self_s[group] += end - start - child[idx]
        out = {}
        for name, (unit, kind, group) in LAYER_METRICS.items():
            if kind == "count":
                value = int(self.counts[name])
            else:
                source = busy if kind == "busy" else self_s
                value = source[group] * 1e3 * scale
            out[name] = (value, unit)
        return out
