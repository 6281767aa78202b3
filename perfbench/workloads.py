"""The benchmark's three workloads.

Each workload builds its inputs from the seed in `__init__` (the set-up that
`setup_s` times), runs one pass of its fixed input set per `run_pass` call
with one caller in a closed loop, stamping the start and end of every op, and
judges every output in `check` after the timed phases.  A pass always does
the same work, so pass times are comparable across runs and seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from array import array

import numpy as np

import generators as gen
import reference as ref
from thetanulls import cli, thetanum, verify
from thetanulls.f2core import F2Vector

EPS_MIX = (1e-8, 1e-10, 1e-12)
LAM_MIN = 0.6
LABELS = ("A1", "A2", "A3", "A4")

_clock = time.perf_counter


class Workload:
    """Common bookkeeping: the start and end stamp of every op, the first
    pass's outputs and how many theta_constant calls returned a bound above
    the requested eps (bound_excess_frac).  Nothing here grows faster than
    two floats per op, so peak RSS barely depends on how many passes fit in
    a run."""

    name = ""

    def __init__(self) -> None:
        self.stamps = array("d")  # start, end of each op in turn
        self.theta_calls = 0
        self.bound_excess = 0
        self.first: list | None = None  # outputs of the first pass
        self.passes = 0
        self.changed: list[int] = []  # per op: later passes that differed

    def instrument(self, patches) -> None:
        def make(fn):
            def theta_constant(z, k, eps, *args, **kwargs):
                value, bound = fn(z, k, eps, *args, **kwargs)
                self.theta_calls += 1
                self.bound_excess += bound > eps
                return value, bound
            return theta_constant
        patches.rebind(thetanum, "theta_constant", make)

    def run_pass(self) -> list:
        """One pass over the inputs; returns one output per op."""
        raise NotImplementedError

    def record(self, outputs: list) -> None:
        """Keep the first pass's outputs; later passes are only compared
        with them, so memory does not grow with the number of passes."""
        self.passes += 1
        if self.first is None:
            self.first = outputs
            self.changed = [0] * len(outputs)
        else:
            for i, (a, b) in enumerate(zip(self.first, outputs)):
                self.changed[i] += a != b

    def check(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages) over every pass recorded.  An op
        fails in every pass if its first-pass output fails its check, and
        in a later pass if that pass returned a different output."""
        bad = {i for i, out in enumerate(self.first)
               if not self.check_op(i, out)}
        failed = sum(self.passes if i in bad else n
                     for i, n in enumerate(self.changed))
        notes = [f"{self.name}: op {i} failed its output check: "
                 f"{self.describe(i)}" for i in sorted(bad)[:5]]
        notes += [f"{self.name}: op {i} changed output in {n} later passes: "
                  f"{self.describe(i)}"
                  for i, n in enumerate(self.changed) if n and i not in bad][:5]
        return len(self.first) * self.passes, failed, notes

    def check_op(self, i: int, out) -> bool:
        raise NotImplementedError

    def describe(self, i: int) -> str:
        return str(i)


# ---------------------------------------------------------------------------
# verify-all


def _criterion_expectations(census3: dict) -> dict:
    return {
        1: lambda r: r["rows"] == [
            {"g": g, "even": ref.even_count(g), "odd": ref.odd_count(g),
             "ok": True} for g in range(1, 7)],
        2: lambda r: (r["arf_checked"] == sum(16 ** g for g in (1, 2, 3))
                      and r["four_term_checked"]
                      == sum(64 ** g for g in (1, 2, 3))),
        3: lambda r: r["trials"] == 10_000 and r["violations"] == 0,
        4: lambda r: (r["exhaustive_g2"] == math.comb(10, 4)
                      and r["random_g6"] == 100_000
                      and r["mismatches"] == 0),
        5: lambda r: (r["counts"] == census3
                      and r["total"] == math.comb(36, 4)
                      and r["orbit_sizes"] == census3
                      and r["orbit_consistent"] is True),
        6: lambda r: [w["label"] for w in r["witnesses"]] == list(LABELS),
        7: lambda r: (r["vanishing_g6"] == ref.vanishing_count(6) == 364
                      and all(r[key] is True for key in (
                          "q_minus_matches_g6", "q_plus_matches_g3",
                          "parity_preserving", "bijective",
                          "torsor_isomorphism"))),
        8: lambda r: (r["trials_per_genus"] == 100 and r["rows"] == [
            {"g": g, "rank": g - 2, "integer_ok": True, "random_ok": 100}
            for g in range(3, 9)]),
        9: lambda r: (all(r[key] is True for key in (
                          "odd_ok", "split_ok", "modulus_ok", "radius_ok"))
                      and r["level_two_checked"] >= 20
                      and r["radius_failures"] == 0
                      and r["worst_odd_modulus"] <= 1e-12
                      and r["worst_split_diff"] <= 1e-10
                      and r["worst_modulus_diff"] <= 1e-8),
    }


class VerifyAll(Workload):
    """One in-process `verify.run_all(seed)` per pass, which is also its one
    op: the latency a user of `thetanulls verify-all` waits for.
    `criteria` restricts a pass to a subset (smoke test)."""

    name = "verify-all"

    def __init__(self, seed: int, workdir: str,
                 criteria: tuple[int, ...] | None = None) -> None:
        super().__init__()
        self.seed = seed
        self.criteria = criteria
        self.failing: list[int] = []

    def run_pass(self) -> list:
        start = _clock()
        try:
            if self.criteria is None:
                report = verify.run_all(self.seed)
            else:
                reps = [verify.CRITERIA[i - 1](self.seed)
                        for i in self.criteria]
                report = {"seed": self.seed, "criteria": reps,
                          "all_pass": all(r["pass"] for r in reps)}
        except Exception as exc:
            report = {"raised": repr(exc)}
        self.stamps.extend((start, _clock()))
        # compared across passes, so keep the serialized form
        return [json.dumps(report, sort_keys=True)]

    def check_op(self, i, out) -> bool:
        report = json.loads(out)
        if "raised" in report:
            self.failing = [report["raised"]]
            return False
        expect = _criterion_expectations(ref.census(3))
        self.failing = [r["criterion"] for r in report["criteria"]
                        if not (r["pass"] is True
                                and expect[r["criterion"]](r))]
        want = list(self.criteria or range(1, 10))
        return (report["all_pass"] is True and report["seed"] == self.seed
                and [r["criterion"] for r in report["criteria"]] == want
                and not self.failing)

    def describe(self, i):
        return f"failing criteria {self.failing}"


# ---------------------------------------------------------------------------
# theta-campaign


# genus -> (matrices per eps value, characteristics per matrix or None for
# all 4^g).  Sized so that as many ops are cheaper than the genus-3 calls as
# are dearer, which puts the median op in the middle of the dense genus-3
# block (a quantile taken where latencies are sparse jumps with machine
# noise), and so that the 99th percentile falls among the genus-5 calls.
# The genus-5 sample has fixed k' weights, so no genus's cost depends on
# the seed.
THETA_LAYOUT = {1: (6, None), 2: (15, None), 3: (2, None), 4: (1, None),
                5: (1, 8)}
REFERENCE_SAMPLES = 2  # independently re-evaluated characteristics per matrix


class ThetaCampaign(Workload):
    """Certified theta_constant calls over benchmark-made Z with fixed
    lambda_min(Im Z) and condition number log-uniform in [1, 30], at every
    eps of EPS_MIX; plus a few modulus and block-splitting checks."""

    name = "theta-campaign"

    def __init__(self, seed: int, workdir: str,
                 layout: dict | None = None) -> None:
        super().__init__()
        rng = gen.stream(seed, 1)
        self.batches = []  # (g, eps, re, im, SiegelMatrix, bit list, chars)
        for eps in EPS_MIX:
            for g, (count, sample) in (layout or THETA_LAYOUT).items():
                for _ in range(count):
                    re, im = gen.siegel(rng, g, LAM_MIN,
                                        gen.log_uniform(rng, 1.0, 30.0))
                    bits = (list(range(4 ** g)) if sample is None else
                            gen.sampled_chars(rng, g, sample))
                    self.batches.append((
                        g, eps, re, im, thetanum.SiegelMatrix(re + 1j * im),
                        bits, [F2Vector(g, b) for b in bits]))
        self.batches = [self.batches[i]
                        for i in rng.permutation(len(self.batches))]
        self.checks = []  # (kind, args)
        for g, eps in zip((1, 2, 3), EPS_MIX):
            data = gen.transform_input(rng, g, 0.8, 0.3)
            self.checks.append(("transform", (
                thetanum.IntSymplectic.from_json_dict(data["m"]),
                thetanum.SiegelMatrix.from_json_dict(data["z"]),
                F2Vector.from_list(data["k"]), eps)))
        for sizes, eps in zip(((1, 1), (1, 2), (2, 1)), EPS_MIX):
            zs, ks = [], []
            for g in sizes:
                re, im = gen.siegel(rng, g, 0.8, gen.log_uniform(rng, 1.0, 4.0))
                zs.append(thetanum.SiegelMatrix(re + 1j * im))
                ks.append(F2Vector(g, int(rng.integers(4 ** g))))
            self.checks.append(("split", (zs, ks, eps)))
        # op index -> (batch, position) for the reference subsample
        self.index = [(b, j) for b, batch in enumerate(self.batches)
                      for j in range(len(batch[5]))]
        pick = gen.stream(seed, 99)
        self.sampled = {(b, int(j)) for b, batch in enumerate(self.batches)
                        for j in pick.choice(len(batch[5]),
                                             size=REFERENCE_SAMPLES,
                                             replace=False)}

    def run_pass(self) -> list:
        theta = thetanum.theta_constant
        stamps = self.stamps
        out = []
        for _g, eps, _re, _im, z, _bits, chars in self.batches:
            for k in chars:
                start = _clock()
                try:
                    res = theta(z, k, eps)
                except Exception as exc:
                    res = repr(exc)
                stamps.extend((start, _clock()))
                out.append(res)
        transform = thetanum.transform_modulus_check
        split = thetanum.block_diag_split_check
        for kind, args in self.checks:
            start = _clock()
            try:
                rep = transform(*args) if kind == "transform" else split(*args)
                res = rep["pass"]
            except Exception as exc:
                res = repr(exc)
            stamps.extend((start, _clock()))
            out.append(res)
        return out

    def check_op(self, i, out) -> bool:
        if isinstance(out, str):  # the call raised
            return False
        if i >= len(self.index):
            return out is True
        b, j = self.index[i]
        g, eps, re, im, _z, bits, _chars = self.batches[b]
        value, bound = out
        if not (math.isfinite(value.real) and math.isfinite(value.imag)
                and 0.0 <= bound < math.inf):
            return False
        if gen.q0(bits[j], g) and abs(value) > bound:
            return False
        if (b, j) in self.sampled:
            want, want_bound = ref.theta(re, im, gen.char_bits(bits[j], g))
            return abs(value - want) <= bound + want_bound
        return True

    def describe(self, i):
        if i >= len(self.index):
            return self.checks[i - len(self.index)][0] + " check"
        b, j = self.index[i]
        g, eps, *_rest, bits, _chars = self.batches[b]
        return f"g={g} eps={eps:g} k={bits[j]}"


# ---------------------------------------------------------------------------
# cli-requests


def _write(workdir: str, name: str, data) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _siegel_np(z: dict) -> tuple[np.ndarray, np.ndarray]:
    return np.array(z["re"]), np.array(z["im"])


class CliRequests(Workload):
    """One client calling `cli.main(argv)` in-process on a seeded deck of
    small well-formed requests.  The deck's make-up by subcommand and genus
    is fixed; the seed picks the inputs and the order."""

    name = "cli-requests"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__()
        rng = gen.stream(seed, 2)
        deck = []  # (argv, expectation)

        def add(argv, expect):
            deck.append((argv, expect))

        def path(data):
            return _write(workdir, f"in{len(deck)}.json", data)

        for _ in range(20):
            ks = gen.even_quadruple(rng, 6)
            add(["classify", "--genus", "6", "--input", path(
                {"g": 6, "chars": [gen.char_bits(k, 6) for k in ks]})],
                ("classify", ref.quadruple_label(ks, 6)))
        for _ in range(2):
            for g in (1, 2, 3):
                for eps in EPS_MIX:
                    re, im = gen.siegel(rng, g, LAM_MIN,
                                        gen.log_uniform(rng, 1.0, 30.0))
                    k = gen.char_bits(int(rng.integers(4 ** g)), g)
                    data = {"z": gen.siegel_json(re, im), "k": k}
                    add(["theta", "eval", "--input", path(data),
                         "--eps", repr(eps)], ("theta-eval", data))
            for g, eps in zip((1, 2, 3), EPS_MIX):
                data = gen.transform_input(rng, g, 0.8, 0.3)
                add(["theta", "transform", "--input", path(data),
                     "--eps", repr(eps)], ("theta-transform", data))
            for sizes, eps in zip(((1, 1), (1, 2), (2, 1)), EPS_MIX):
                blocks = []
                for g in sizes:
                    re, im = gen.siegel(rng, g, 0.8,
                                        gen.log_uniform(rng, 1.0, 4.0))
                    blocks.append({"z": gen.siegel_json(re, im),
                                   "k": gen.char_bits(
                                       int(rng.integers(4 ** g)), g)})
                add(["theta", "split", "--input", path({"blocks": blocks}),
                     "--eps", repr(eps)], ("theta-split", sum(sizes)))
        for g in range(2, 7):
            add(["hyperelliptic", "counts", "--genus", str(g)],
                ("counts", g))
            add(["hyperelliptic", "vanishing", "--genus", str(g)],
                ("vanishing", g))
        for _ in range(2):
            for g in range(3, 7):
                pts = gen.labels(rng, g, g - 2)
                add(["hyperelliptic", "cut", "--genus", str(g), "--points",
                     ",".join(map(str, pts))], ("cut", g, pts))
            for g in range(3, 9):
                pts = gen.labels(rng, g, g - 2)
                nodes = path({"g": g, "nodes": gen.node_set(rng, g)})
                add(["transversal", "--genus", str(g), "--nodes", nodes,
                     "--points", ",".join(map(str, pts))],
                    ("transversal", g, pts))
            for g in range(1, 7):
                add(["enumerate", "--genus", str(g)], ("enumerate", g))
        for _ in range(4):
            add(["bielliptic", "verify"], ("bielliptic",))
            add(["orbit-census", "--genus", "2"], ("census2",))
        self.deck = [deck[i] for i in rng.permutation(len(deck))]

    def run_pass(self) -> list:
        main = cli.main
        stamps = self.stamps
        out = []
        for argv, _expect in self.deck:
            buf, err = io.StringIO(), io.StringIO()
            start = _clock()
            try:
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(err):
                    code = main(argv)
            except (Exception, SystemExit) as exc:
                code = f"raised {type(exc).__name__}: {exc}"
            stamps.extend((start, _clock()))
            out.append((code, buf.getvalue()))
        return out

    def check_op(self, i, out) -> bool:
        code, text = out
        if code != 0:
            return False
        rep = json.loads(text)
        expect = self.deck[i][1]
        return _EXPECT[expect[0]](rep, *expect[1:])

    def describe(self, i):
        return " ".join(self.deck[i][0])


def _theta_eval_ok(rep, data) -> bool:
    g = data["z"]["g"]
    value = complex(*rep["value"])
    bound = rep["bound"]
    want, want_bound = ref.theta(*_siegel_np(data["z"]), data["k"])
    odd_ok = not gen.q0(sum(b << i for i, b in enumerate(data["k"])), g) \
        or abs(value) <= bound
    return (rep["g"] == g and 0.0 <= bound < math.inf and odd_ok
            and abs(value - want) <= bound + want_bound)


def _transform_ok(rep, data) -> bool:
    m = np.block([[np.array(data["m"]["A"]), np.array(data["m"]["B"])],
                  [np.array(data["m"]["C"]), np.array(data["m"]["D"])]])
    g = data["z"]["g"]
    level_two = bool(np.all((m - np.eye(2 * g, dtype=np.int64)) % 2 == 0))
    return (rep["pass"] is True and rep["g"] == g and rep["k"] == data["k"]
            and rep["moved_k"] == ref.char_act(m, data["k"], g)
            and rep["level_two"] is level_two)


def _cut_ok(rep, g, pts) -> bool:
    everything = set(range(1, 2 * g + 3))
    rows = rep["characteristics"]
    want = [set(pts) - {lab} for lab in sorted(pts)]
    return (rep["S"] == sorted(pts) and rep["count"] == g - 2
            and len(rows) == g - 2
            and all(set(row["labels"]) in (w, everything - w)
                    and len(row["char"]) == 2 * g
                    for row, w in zip(rows, want)))


def _transversal_ok(rep, g, pts) -> bool:
    return (rep["pass"] is True and rep["g"] == g and rep["S"] == sorted(pts)
            and rep["rank"] == rep["expected_rank"] == g - 2
            and len(rep["chars"]) == g - 2 and rep["h0"] == [2] * (g - 2))


def _enumerate_ok(rep, g) -> bool:
    ok = rep["even"] == ref.even_count(g) and rep["odd"] == ref.odd_count(g)
    if 2 <= g <= 6:
        ok = ok and (rep["classes"] == 4 ** g
                     and rep["even_classes"] == ref.even_count(g)
                     and rep["odd_classes"] == ref.odd_count(g)
                     and rep["vanishing"] == ref.vanishing_count(g)
                     and rep["formula_agreement"] is ref.formula_agrees(g))
    return ok


def _bielliptic_ok(rep) -> bool:
    rows = rep["witnesses"]
    return (rep["all_ok"] is True
            and [w["expected"] for w in rows] == list(LABELS)
            and all(w["ok"] is True
                    and w["parity_rules"] == w["realized"] == w["expected"]
                    for w in rows))


def _census2_ok(rep) -> bool:
    want = ref.census(2)
    return (rep["counts"] == want and rep["total"] == math.comb(10, 4)
            and rep["orbit_consistent"] is True
            and rep["orbit_sizes"] == {k: v for k, v in want.items() if v})


_EXPECT = {
    "classify": lambda rep, label: (
        rep["g"] == 6 and rep["label"] == rep["delta_label"] == label
        and rep["span_dim"] == (2 if label == "A1" else 3)
        and rep["base_independent"] is True),
    "theta-eval": _theta_eval_ok,
    "theta-transform": _transform_ok,
    "theta-split": lambda rep, g_total: (rep["pass"] is True
                                         and rep["g_total"] == g_total),
    "counts": lambda rep, g: (rep["classes"] == 4 ** g
                              and rep["even"] == ref.even_count(g)
                              and rep["odd"] == ref.odd_count(g)
                              and rep["formula_agreement"]
                              is ref.formula_agrees(g)),
    "vanishing": lambda rep, g: (
        rep["count"] == ref.vanishing_count(g) == len(rep["classes"])
        and len({tuple(c) for c in rep["classes"]}) == rep["count"]),
    "cut": _cut_ok,
    "transversal": _transversal_ok,
    "enumerate": _enumerate_ok,
    "bielliptic": _bielliptic_ok,
    "census2": _census2_ok,
}

WORKLOADS = {cls.name: cls for cls in (VerifyAll, ThetaCampaign, CliRequests)}
