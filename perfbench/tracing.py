"""Outside-in tracing for the benchmark's traced run.

The tracer replaces the public functions of the netconsensus modules with
timing wrappers, from the benchmark's own files; nothing in the package
changes. A wrapper goes under every module attribute that names the original
function, so a name bound with ``from .sbm import sample_connected`` is traced
where it is used, and a module-internal call such as ``predict`` calling
``support_boundaries`` goes through the module global and is traced too.

Each call becomes a span (name, start, end, parent) tagged with the id of the
CLI command that caused it. Spans stay in memory until the run ends. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("sbm", "spectra", "rmt", "consensus", "gossip", "data", "bench", "cli")

# called once per gossip round (thousands per run): kept as per-name totals
# only, so the span list stays small
AGGREGATED = frozenset({"gossip.max_pairwise_gap"})


@dataclasses.dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class GadgetCall:
    """One traced run_gadget call, kept so its learning phase can be re-timed."""

    args: tuple
    kwargs: dict
    cfg: object
    seconds: float
    rounds: int


class Tracer:
    """Installs timing wrappers and accumulates spans, totals and counts."""

    def __init__(self, package):
        self.package = package
        self.enabled = False
        self.op = 0
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.gadget_calls: list[GadgetCall] = []
        self.originals = {}
        self._restore = []
        self._next_id = 0

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = [getattr(self.package, name) for name in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, modules):
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    self.originals[name] = fn
                    wrappers[fn] = self._wrap(fn, name)
        for mod in modules + [self.package]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._restore.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer, result, args, kwargs, span)
            return result

        return traced

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> Span:
        if name == "rmt.predict" and any(s.name == "bench.detect_bifurcation" for s in self.stack):
            self.counts["bifurcation_predicts"] += 1
        parent = self.stack[-1].id if self.stack else None
        self._next_id += 1
        span = Span(op=self.op, id=self._next_id, parent=parent, name=name, start=time.perf_counter())
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.duration
        entry = self.totals[span.name]
        entry[0] += 1
        entry[1] += span.duration
        entry[2] += span.duration - span.child_s
        if span.name not in AGGREGATED:
            self.spans.append(span)

    @contextlib.contextmanager
    def command(self, op_id: int):
        """Trace one CLI command: spans opened inside carry op_id."""
        self.op, self.enabled = op_id, True
        try:
            yield self
        finally:
            self.enabled = False

    # ------------------------------------------------------------ gadget replay

    def replay_learning(self) -> None:
        """Re-time each recorded run_gadget call capped at its learning rounds.

        The capped call is censored by design and is not an operation of the
        workload; it runs untraced, after the command it came from.
        """
        run_gadget = self.originals["gossip.run_gadget"]
        was, self.enabled = self.enabled, False
        try:
            for call in self.gadget_calls:
                learning = call.cfg.learning_rounds
                if learning is None or call.rounds <= learning:
                    continue
                capped = dataclasses.replace(call.cfg, max_rounds=learning)
                args = (call.args[0], call.args[1], capped) + tuple(call.args[3:])
                start = time.perf_counter()
                run_gadget(*args, **call.kwargs)
                learn_s = time.perf_counter() - start
                self.counts["learn_rounds"] += learning
                self.counts["mix_rounds"] += call.rounds - learning
                self.counts["learn_s"] += learn_s
                self.counts["mix_s"] += call.seconds - learn_s
        finally:
            self.enabled = was
            self.gadget_calls.clear()

    # ------------------------------------------------------------ export

    def span_records(self):
        return [
            {"op": s.op, "id": s.id, "parent": s.parent, "name": s.name,
             "start": s.start, "end": s.end, "self_s": s.duration - s.child_s}
            for s in self.spans
        ]


# ---------------------------------------------------------------- count hooks
# Counts come from the objects the traced calls return.


def _on_consensus_run(tracer, result, args, kwargs, span):
    tracer.counts["consensus_rounds"] += int(result.rounds)
    tracer.counts["consensus_censored"] += int(result.censored)


def _on_run_gadget(tracer, result, args, kwargs, span):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    rounds = cfg.max_rounds if result.censored else int(result.rounds_to_consensus)
    tracer.counts["gossip_rounds"] += rounds
    tracer.counts["gossip_censored"] += int(result.censored)
    tracer.gadget_calls.append(GadgetCall(args=args, kwargs=kwargs, cfg=cfg, seconds=span.duration, rounds=rounds))


def _on_sample(tracer, result, args, kwargs, span):
    tracer.counts["sampled_edges"] += int(result.num_edges)


def _on_sample_connected(tracer, result, args, kwargs, span):
    tracer.counts["connected_networks"] += 1


def _on_bulk_density(tracer, result, args, kwargs, span):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    tracer.counts["density_points"] += len(grid)
    tracer.counts["density_failed_points"] += len(result[1]["failed_points"])


_HOOKS = {
    "consensus.run": _on_consensus_run,
    "gossip.run_gadget": _on_run_gadget,
    "sbm.sample": _on_sample,
    "sbm.sample_connected": _on_sample_connected,
    "rmt.bulk_density": _on_bulk_density,
}


# ---------------------------------------------------------------- metrics


def layer_report(tracer: Tracer, commands: int) -> dict:
    """Per-layer numbers under their documented names, per traced command.

    Times are seconds per traced CLI command unless the name says otherwise;
    counts are per traced command; ratios and per-round times use the
    run's totals.
    """
    n = max(commands, 1)

    def calls(name):
        return tracer.totals.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return tracer.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return tracer.totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    c = tracer.counts
    detections = calls("bench.detect_bifurcation")
    return {
        "cli.run_s": total("cli.cli") / n,
        "cli.self_s": self_s("cli.cli") / n,
        "rmt.predict_s": total("rmt.predict") / n,
        "rmt.predict_self_s": self_s("rmt.predict") / n,
        "rmt.predict_calls": calls("rmt.predict") / n,
        "rmt.support_s": total("rmt.support_boundaries") / n,
        "rmt.support_calls": calls("rmt.support_boundaries") / n,
        "rmt.isolated_s": total("rmt.isolated_eigenvalues") / n,
        "rmt.density_s": total("rmt.bulk_density") / n,
        "rmt.density_point_us": ratio(total("rmt.bulk_density"), c["density_points"], 1e6),
        "rmt.density_failed_points": c["density_failed_points"] / n,
        "bench.bifurcation_predict_calls": ratio(c["bifurcation_predicts"], detections),
        "bench.sweep_s": total("bench.sweep") / n,
        "bench.sweep_self_s": self_s("bench.sweep") / n,
        "sbm.sample_s": total("sbm.sample") / n,
        "sbm.sample_calls": calls("sbm.sample") / n,
        "sbm.networks_per_attempt": ratio(c["connected_networks"], calls("sbm.sample")),
        "sbm.edges_per_s": ratio(c["sampled_edges"], total("sbm.sample")),
        "spectra.lambda2_s": total("spectra.lambda2_only") / n,
        "spectra.lambda2_calls": calls("spectra.lambda2_only") / n,
        "consensus.run_s": total("consensus.run") / n,
        "consensus.rounds": c["consensus_rounds"] / n,
        "consensus.round_us": ratio(total("consensus.run"), c["consensus_rounds"], 1e6),
        "consensus.censored_runs": c["consensus_censored"] / n,
        "gossip.run_s": total("gossip.run_gadget") / n,
        "gossip.rounds": c["gossip_rounds"] / n,
        "gossip.gap_s": total("gossip.max_pairwise_gap") / n,
        "gossip.learn_round_ms": ratio(c["learn_s"], c["learn_rounds"], 1e3),
        "gossip.mix_round_us": ratio(c["mix_s"], c["mix_rounds"], 1e6),
        "gossip.censored_runs": c["gossip_censored"] / n,
        "data.make_blobs_s": total("data.make_blobs") / n,
    }


def _share(name):
    return lambda r: r[name] / r["cli.run_s"] if r["cli.run_s"] else 0.0


def _rate(name, scale):
    return lambda r: scale / r[name] if r[name] else 0.0


def _same(name):
    return lambda r: r[name]


# The per-layer metrics of the traced run's result line: (name, unit, better,
# value from layer_report). A layer time that is zero on a workload which never
# enters the layer is given as a share of the command time, and a per-round
# time as a rate, so no reported time is a constant zero; layer_report keeps
# the seconds.
PER_LAYER = [
    ("cli.self_s", "s", "lower", _same("cli.self_s")),
    ("rmt.predict_s", "s", "lower", _same("rmt.predict_s")),
    ("rmt.predict_self_s", "s", "lower", _same("rmt.predict_self_s")),
    ("rmt.support_s", "s", "lower", _same("rmt.support_s")),
    ("rmt.isolated_s", "s", "lower", _same("rmt.isolated_s")),
    ("trace.overhead_s", "s", "lower", _same("trace.overhead_s")),
    ("rmt.predict_share", "share", "lower", _share("rmt.predict_s")),
    ("rmt.density_share", "share", "lower", _share("rmt.density_s")),
    ("bench.sweep_share", "share", "lower", _share("bench.sweep_s")),
    ("bench.sweep_self_share", "share", "lower", _share("bench.sweep_self_s")),
    ("sbm.sample_share", "share", "lower", _share("sbm.sample_s")),
    ("spectra.lambda2_share", "share", "lower", _share("spectra.lambda2_s")),
    ("consensus.run_share", "share", "lower", _share("consensus.run_s")),
    ("gossip.run_share", "share", "lower", _share("gossip.run_s")),
    ("gossip.gap_share", "share", "lower", _share("gossip.gap_s")),
    ("data.make_blobs_share", "share", "lower", _share("data.make_blobs_s")),
    ("rmt.density_points_per_s", "1/s", "higher", _rate("rmt.density_point_us", 1e6)),
    ("sbm.edges_per_s", "1/s", "higher", _same("sbm.edges_per_s")),
    ("consensus.rounds_per_s", "1/s", "higher", _rate("consensus.round_us", 1e6)),
    ("gossip.learn_rounds_per_s", "1/s", "higher", _rate("gossip.learn_round_ms", 1e3)),
    ("gossip.mix_rounds_per_s", "1/s", "higher", _rate("gossip.mix_round_us", 1e6)),
    ("rmt.predict_calls", "count", "lower", _same("rmt.predict_calls")),
    ("rmt.support_calls", "count", "lower", _same("rmt.support_calls")),
    ("rmt.density_failed_points", "count", "lower", _same("rmt.density_failed_points")),
    ("bench.bifurcation_predict_calls", "count", "lower", _same("bench.bifurcation_predict_calls")),
    ("sbm.sample_calls", "count", "lower", _same("sbm.sample_calls")),
    ("sbm.networks_per_attempt", "ratio", "higher", _same("sbm.networks_per_attempt")),
    ("spectra.lambda2_calls", "count", "lower", _same("spectra.lambda2_calls")),
    ("consensus.rounds", "count", "lower", _same("consensus.rounds")),
    ("consensus.censored_runs", "count", "lower", _same("consensus.censored_runs")),
    ("gossip.rounds", "count", "lower", _same("gossip.rounds")),
    ("gossip.censored_runs", "count", "lower", _same("gossip.censored_runs")),
]


def result_metrics(report: dict) -> dict:
    return {name: {"value": fn(report), "unit": unit} for name, unit, _better, fn in PER_LAYER}
