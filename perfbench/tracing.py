"""Instrumentation of the program from outside its sources.

`Patches` rebinds a public name of a thetanulls module to a wrapper in every
thetanulls module that holds it -- as a global (`from ... import` copies
included, e.g. `verify.classify` and `cli.theta_constant`) or as an item of a
module-level list (`verify.CRITERIA`) -- and puts the originals back on exit.
Only public names are wrapped, so the metrics survive a rewrite of the
private kernels behind them.

`Tracer` records spans (name, start, end, parent, op id, tag) at coarse
boundaries and aggregated counters for hot leaves (`parity`,
`symplectic_pairing`, `F2Vector` construction, the per-quadruple classifiers),
so a traced run does not hold millions of spans.  `layer_metrics` turns one
traced phase into the per-layer metrics listed in `PER_LAYER`.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

from thetanulls import (bielliptic, cli, f2core, hyperelliptic, orbits,
                        quadforms, thetanum, transversal, verify)

_clock = time.perf_counter_ns


class Patches:
    """Context manager holding every rebinding made through it."""

    def __init__(self) -> None:
        self._undo: list = []

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    def rebind(self, module, name: str, make_wrapper) -> None:
        current = getattr(module, name)
        wrapper = make_wrapper(current)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "thetanulls":
                continue
            for key, val in list(vars(mod).items()):
                if val is current:
                    setattr(mod, key, wrapper)
                    self._undo.append(functools.partial(setattr, mod, key,
                                                        current))
                elif type(val) is list:
                    for i, item in enumerate(val):
                        if item is current:
                            val[i] = wrapper
                            self._undo.append(functools.partial(
                                val.__setitem__, i, current))

    def set_class_attr(self, cls, name: str, value) -> None:
        self._undo.append(functools.partial(setattr, cls, name,
                                            cls.__dict__[name]))
        setattr(cls, name, value)


class _CountingRng:
    """Delegating proxy that counts randrange draws."""

    def __init__(self, rng) -> None:
        self._rng = rng
        self.draws = 0

    def randrange(self, *args):
        self.draws += 1
        return self._rng.randrange(*args)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _theta_tag(args, kwargs):
    return args[0].g


def _main_tag(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


# (module, public name, tag function or None): one span per call
_SPANS = (
    [(verify, f"criterion_{i}", None) for i in range(1, 10)]
    + [(orbits, "census_report", None), (orbits, "orbit_bfs", None),
       (hyperelliptic, "std_labeling", None),
       (hyperelliptic, "vanishing_thetanulls", None),
       (hyperelliptic, "formula_agreement", None),
       (bielliptic, "verify_witnesses", None),
       (transversal, "transversality_report", None),
       (transversal, "rank", None), (transversal, "basis_polys", None),
       (thetanum, "theta_constant", _theta_tag),
       (thetanum, "siegel_act", None),
       (thetanum, "transform_modulus_check", None),
       (thetanum, "block_diag_split_check", None),
       (cli, "main", _main_tag)]
    + [(cli, name, None) for name in sorted(vars(cli))
       if name.startswith("cmd_")])

# hot leaves: call count and inclusive time only
_COUNTERS = [(quadforms, "parity"), (f2core, "symplectic_pairing"),
             (orbits, "classify"), (orbits, "classify_by_delta")]

CLI_SUBCOMMANDS = ("enumerate", "classify", "orbit-census", "hyperelliptic",
                   "bielliptic", "theta", "transversal")

# per-layer metrics of a traced run, in report order, with their units
PER_LAYER = (
    [(f"verify.criterion_{i}_s", "s") for i in range(1, 10)]
    + [("orbits.classify.calls", "count"),
       ("orbits.classify.us_per_call", "us"),
       ("orbits.classify_by_delta.us_per_call", "us"),
       ("orbits.random_quadruple.us_per_call", "us"),
       ("orbits.random_quadruple.draws_per_quadruple", "ratio"),
       ("orbits.orbit_bfs.nodes", "count"),
       ("orbits.orbit_bfs.us_per_node", "us"),
       ("orbits.census_report.self_s", "s"),
       ("quadforms.parity.calls", "count"),
       ("quadforms.parity.us_per_call", "us"),
       ("f2core.symplectic_pairing.calls", "count"),
       ("f2core.symplectic_pairing.us_per_call", "us"),
       ("f2core.F2Vector.constructs", "count"),
       ("hyperelliptic.std_labeling.calls", "count"),
       ("hyperelliptic.std_labeling.ms_per_call", "ms"),
       ("hyperelliptic.vanishing_thetanulls.ms_per_call", "ms"),
       ("hyperelliptic.formula_agreement.ms_per_call", "ms"),
       ("bielliptic.verify_witnesses.ms_per_call", "ms"),
       ("transversal.transversality_report.self_ms", "ms"),
       ("transversal.rank.us_per_call", "us"),
       ("transversal.basis_polys.us_per_call", "us"),
       ("transversal.basis_polys.max_coeff_bits", "bits"),
       ("thetanum.theta_constant.calls", "count")]
    + [(f"thetanum.theta_constant.ms_per_call.g{g}", "ms")
       for g in range(1, 6)]
    + [("thetanum.theta_constant.bound_over_eps_p50", "ratio"),
       ("thetanum.SiegelMatrix.us_per_construct", "us"),
       ("thetanum.siegel_act.us_per_call", "us"),
       ("thetanum.transform_modulus_check.self_ms", "ms"),
       ("thetanum.block_diag_split_check.self_ms", "ms"),
       ("cli.main.self_ms", "ms")]
    + [(f"cli.{sub}.p50_ms", "ms") for sub in CLI_SUBCOMMANDS]
    + [("trace.overhead_s", "s")])


class Tracer:
    """Spans and counters of one traced phase."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[tuple[int, int]] = []  # (span index, op id)
        self.counters: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.samples: dict[str, list] = defaultdict(list)

    def _span(self, name: str, tag):
        spans, stack = self.spans, self._stack

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                # a top-level span opens an op; its descendants share the id
                parent, op = stack[-1] if stack else (-1, idx)
                stack.append((idx, op))
                start = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = _clock()
                    stack.pop()
                    spans[idx] = (name, start, end, parent, op,
                                  tag(args, kwargs) if tag else None)
            return wrapper
        return make

    def _counter(self, name: str):
        cell = self.counters[name]

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    cell[0] += 1
                    cell[1] += _clock() - start
            return wrapper
        return make

    def _sampler(self, key: str, extract):
        """Wrapper recording extract(args, kwargs, result) per call."""
        out = self.samples[key]

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                out.append(extract(args, kwargs, result))
                return result
            return wrapper
        return make

    def install(self, patches: Patches) -> None:
        for module, name, tag in _SPANS:
            patches.rebind(module, name,
                           self._span(f"{module.__name__[11:]}.{name}", tag))
        for module, name in _COUNTERS:
            patches.rebind(module, name,
                           self._counter(f"{module.__name__[11:]}.{name}"))
        patches.rebind(thetanum, "theta_constant", self._sampler(
            "theta_constant.bound_over_eps",
            lambda a, kw, res: res[1] / (a[2] if len(a) > 2 else kw["eps"])))
        patches.rebind(orbits, "orbit_bfs", self._sampler(
            "orbit_bfs.nodes", lambda a, kw, res: len(res)))
        patches.rebind(transversal, "basis_polys", self._sampler(
            "basis_polys.coeff_bits",
            lambda a, kw, res: max((max(c.numerator.bit_length(),
                                        c.denominator.bit_length())
                                    for poly in res for c in poly),
                                   default=0)))
        self._install_random_quadruple(patches)
        self._install_constructors(patches)

    def _install_random_quadruple(self, patches: Patches) -> None:
        cell = self.counters["orbits.random_quadruple"]
        draws = self.counters["orbits.random_quadruple.draws"]

        def make(fn):
            @functools.wraps(fn)
            def wrapper(g, rng):
                proxy = _CountingRng(rng)
                start = _clock()
                try:
                    return fn(g, proxy)
                finally:
                    cell[0] += 1
                    cell[1] += _clock() - start
                    draws[0] += proxy.draws
            return wrapper
        patches.rebind(orbits, "random_quadruple", make)

    def _install_constructors(self, patches: Patches) -> None:
        vec = self.counters["f2core.F2Vector"]
        post_init = f2core.F2Vector.__post_init__

        def counted_post_init(obj):
            vec[0] += 1
            post_init(obj)
        patches.set_class_attr(f2core.F2Vector, "__post_init__",
                               counted_post_init)

        siegel = self.counters["thetanum.SiegelMatrix"]
        init = thetanum.SiegelMatrix.__init__

        def timed_init(obj, z):
            start = _clock()
            try:
                init(obj, z)
            finally:
                siegel[0] += 1
                siegel[1] += _clock() - start
        patches.set_class_attr(thetanum.SiegelMatrix, "__init__", timed_init)

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end (ns), parent index,
        op id and tag."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _per_call(cell, scale: float) -> float:
    return cell[1] / cell[0] / scale if cell[0] else 0.0


def layer_metrics(tr: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics of one traced phase of `passes` passes.  Counts
    are per pass, times are means per call; self time is a span's duration
    minus that of its direct child spans.  A layer the workload does not
    reach reads 0."""
    child_ns = [0] * len(tr.spans)
    for name, start, end, parent, _op, _tag in tr.spans:
        if parent >= 0:
            child_ns[parent] += end - start
    dur: dict[str, list[int]] = defaultdict(list)
    self_ns: dict[str, list[int]] = defaultdict(list)
    by_tag: dict[tuple, list[int]] = defaultdict(list)
    for i, (name, start, end, _parent, _op, tag) in enumerate(tr.spans):
        dur[name].append(end - start)
        self_ns[name].append(end - start - child_ns[i])
        if tag is not None:
            by_tag[name, tag].append(end - start)
    c = tr.counters

    def mean_ms(name):
        return _mean(dur[name]) / 1e6

    def median_ms(key):
        return statistics.median(by_tag[key]) / 1e6 if by_tag[key] else 0.0

    bfs_nodes = sum(tr.samples["orbit_bfs.nodes"])
    rq = c["orbits.random_quadruple"]
    ratios = tr.samples["theta_constant.bound_over_eps"]
    out = {f"verify.criterion_{i}_s": mean_ms(f"verify.criterion_{i}") / 1e3
           for i in range(1, 10)}
    out.update({
        "orbits.classify.calls": c["orbits.classify"][0] / passes,
        "orbits.classify.us_per_call": _per_call(c["orbits.classify"], 1e3),
        "orbits.classify_by_delta.us_per_call":
            _per_call(c["orbits.classify_by_delta"], 1e3),
        "orbits.random_quadruple.us_per_call": _per_call(rq, 1e3),
        "orbits.random_quadruple.draws_per_quadruple":
            c["orbits.random_quadruple.draws"][0] / rq[0] if rq[0] else 0.0,
        "orbits.orbit_bfs.nodes": bfs_nodes / passes,
        "orbits.orbit_bfs.us_per_node":
            sum(dur["orbits.orbit_bfs"]) / bfs_nodes / 1e3 if bfs_nodes
            else 0.0,
        "orbits.census_report.self_s":
            _mean(self_ns["orbits.census_report"]) / 1e9,
        "quadforms.parity.calls": c["quadforms.parity"][0] / passes,
        "quadforms.parity.us_per_call": _per_call(c["quadforms.parity"], 1e3),
        "f2core.symplectic_pairing.calls":
            c["f2core.symplectic_pairing"][0] / passes,
        "f2core.symplectic_pairing.us_per_call":
            _per_call(c["f2core.symplectic_pairing"], 1e3),
        "f2core.F2Vector.constructs": c["f2core.F2Vector"][0] / passes,
        "hyperelliptic.std_labeling.calls":
            len(dur["hyperelliptic.std_labeling"]) / passes,
        "hyperelliptic.std_labeling.ms_per_call":
            mean_ms("hyperelliptic.std_labeling"),
        "hyperelliptic.vanishing_thetanulls.ms_per_call":
            mean_ms("hyperelliptic.vanishing_thetanulls"),
        "hyperelliptic.formula_agreement.ms_per_call":
            mean_ms("hyperelliptic.formula_agreement"),
        "bielliptic.verify_witnesses.ms_per_call":
            mean_ms("bielliptic.verify_witnesses"),
        "transversal.transversality_report.self_ms":
            _mean(self_ns["transversal.transversality_report"]) / 1e6,
        "transversal.rank.us_per_call": mean_ms("transversal.rank") * 1e3,
        "transversal.basis_polys.us_per_call":
            mean_ms("transversal.basis_polys") * 1e3,
        "transversal.basis_polys.max_coeff_bits":
            max(tr.samples["basis_polys.coeff_bits"], default=0),
        "thetanum.theta_constant.calls":
            len(dur["thetanum.theta_constant"]) / passes,
    })
    for g in range(1, 6):
        out[f"thetanum.theta_constant.ms_per_call.g{g}"] = _mean(
            by_tag["thetanum.theta_constant", g]) / 1e6
    out.update({
        "thetanum.theta_constant.bound_over_eps_p50":
            statistics.median(ratios) if ratios else 0.0,
        "thetanum.SiegelMatrix.us_per_construct":
            _per_call(c["thetanum.SiegelMatrix"], 1e3),
        "thetanum.siegel_act.us_per_call":
            mean_ms("thetanum.siegel_act") * 1e3,
        "thetanum.transform_modulus_check.self_ms":
            _mean(self_ns["thetanum.transform_modulus_check"]) / 1e6,
        "thetanum.block_diag_split_check.self_ms":
            _mean(self_ns["thetanum.block_diag_split_check"]) / 1e6,
        "cli.main.self_ms": _mean(self_ns["cli.main"]) / 1e6,
    })
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.p50_ms"] = median_ms(("cli.main", sub))
    return out
