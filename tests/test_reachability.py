"""The library holds what its commands reach.

A fresh interpreter runs the README's commands through cli.main under a
sys.setprofile hook; the last of them, verify-all --seed 0, is
verify.run_all(0).  A fresh interpreter, so that cached bodies such as
std_labeling, realization and build_parser run here and count.  Every
module-level function, public or _private, and every non-dunder method of
a public class in src/thetanulls must have run, or be in ALLOWED with its
reason.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from test_cli import readme_requests

# name -> why it stays although no README command reaches it; each reason
# starts with one of REASONS
ALLOWED = {
    # perfbench/tracing.py rebinds these by name (ROADMAP item 1)
    "f2core.symplectic_pairing": "traced: tracing.py counts its calls",
    "orbits.orbit_bfs": "traced: tracing.py times it",
    "orbits.random_quadruple": "traced: tracing.py counts its draws",
    "thetanum.siegel_act": "traced: tracing.py times it",
    # and the tests' reference for the Lagrange diagonal (ROADMAP item 8)
    "transversal.basis_polys": "traced: tracing.py times it",
    "transversal.rank": "traced: tracing.py times it",
    # a test checks a live kernel against these
    "f2core.SymplecticMap.apply_int":
        "test reference: the maps of act_on_char",
    "f2core.transvection": "test reference: for _transvect_char",
    "quadforms.act_on_char": "test reference: for char_act_int and "
                             "_transvect_char",
    # an open ROADMAP item builds on these
    "f2core.witt_extend": "ROADMAP item 5: witness-certified classes",
    "f2core._preserves_pairing": "ROADMAP item 5",
    "f2core._rank_int": "ROADMAP item 5",
    "f2core._solve_f2": "ROADMAP item 5",
    "orbits.census": "ROADMAP item 4: the closed-form census",
    # the other half of a JSON round trip whose parser or writer the
    # commands use
    "bielliptic.BChar.from_json_dict": "JSON I/O",
    "orbits.Quadruple.to_json_dict": "JSON I/O",
    "thetanum.IntSymplectic.to_json_dict": "JSON I/O",
    "thetanum.SiegelMatrix.to_json_dict": "JSON I/O",
    "transversal.NodeSet.to_json_dict": "JSON I/O",
}

REASONS = ("traced", "test reference", "ROADMAP item", "JSON I/O")

# reads argv lists on stdin and prints every module-level function and every
# public method of the package, and those that never ran
_PROBE = r"""
import contextlib, importlib, inspect, io, json, pkgutil, sys

ran = set()

def hook(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)

sys.setprofile(hook)
import thetanulls
from thetanulls import cli
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        if cli.main(argv) != 0:
            sys.exit(f"{argv} did not exit 0")
sys.setprofile(None)

def functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("__") or getattr(obj, "__module__", "") != \
                mod.__name__:
            continue
        if inspect.isclass(obj) and not name.startswith("_"):
            for attr, member in vars(obj).items():
                # dunders, and the sunder names of the enum protocol
                if attr.startswith("_") and attr.endswith("_"):
                    continue
                fn = getattr(member, "__func__",
                             getattr(member, "fget", member))
                if inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn
        elif inspect.isfunction(inspect.unwrap(obj)):
            yield name, inspect.unwrap(obj)

found, unreached = [], []
for info in pkgutil.iter_modules(thetanulls.__path__):
    mod = importlib.import_module("thetanulls." + info.name)
    for name, fn in functions(mod):
        found.append(f"{info.name}.{name}")
        if fn.__code__ not in ran:
            unreached.append(found[-1])
print(json.dumps({"found": found, "unreached": unreached}))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("readme")
    requests = readme_requests(workdir)
    assert ["verify-all", "--seed", "0"] in requests  # verify.run_all(0)
    proc = subprocess.run([sys.executable, "-c", _PROBE],
                          input=json.dumps(requests), cwd=workdir,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return set(out["found"]), set(out["unreached"])


def test_every_unreached_name_is_allowlisted(probe):
    _found, unreached = probe
    assert sorted(unreached - set(ALLOWED)) == []


def test_every_allowlisted_name_exists_and_is_unreached(probe):
    found, unreached = probe
    assert sorted(set(ALLOWED) - found) == []
    assert sorted(set(ALLOWED) - unreached) == []


def test_each_reason_is_one_of_the_kinds():
    assert all(reason.startswith(REASONS) for reason in ALLOWED.values())
