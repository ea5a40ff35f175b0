"""Cold start: SciPy stays off the import path of the package, and
``kernel-check`` builds no Gauss-Legendre nodes.

Only the Gaussian inverse-CDF draw (``ndtri``) needs SciPy, and it imports
it at that call site; the q-Gaussian tables use the package's own PCHIP.
Importing the CLI and running ``classify``, ``kernel-check``, ``verify`` and
a q-Gaussian ``sample`` in a fresh interpreter must leave ``scipy`` out of
``sys.modules``; a Gaussian ``sample`` afterwards in the same interpreter
must load it, so the check can tell the two apart.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import qfields
from qfields import params
from qfields.simulate import SamplerConfig, make_sampler, sample_ensemble, write_csv

SRC = str(Path(qfields.__file__).resolve().parents[1])

CHILD = r"""
import contextlib, io, json, sys
import qfields, qfields.cli
from qfields.cli import run

csv, out_dir, verify_params = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])

def quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return run(argv)

state = {"import": "scipy" in sys.modules}
state["rc"] = [
    quiet(["classify", *verify_params, "--json"]),
    quiet(["kernel-check", "--rho", "0.5", "--q", "0.5"]),
    quiet(["verify", "--in", csv, *verify_params]),
]
state["cold"] = "scipy" in sys.modules
state["rc"].append(quiet(["sample", "--rho", "0.5", "--q", "0.5", "--chains", "4",
                          "--steps", "50", "--out", out_dir + "/q.csv"]))
state["sample"] = "scipy" in sys.modules
state["rc"].append(quiet(["sample", "--rho", "0.5", "--q", "1", "--chains", "4",
                          "--steps", "50", "--out", out_dir + "/gauss.csv"]))
state["gaussian"] = "scipy" in sys.modules
print(json.dumps(state))
"""


def test_scipy_loaded_only_by_sample(tmp_path):
    fp = params.params_from_rho_q(0.5, 0.5)
    csv = tmp_path / "chains.csv"
    sampler = make_sampler(params.classify(fp), SamplerConfig(rho=0.5, q=0.5))
    write_csv(sample_ensemble(sampler, 8, 200, 3), csv)
    verify_params = ["--rho", repr(fp.rho), "--A", repr(fp.A), "--B", repr(fp.B),
                     "--C", repr(fp.C), "--D", repr(fp.D)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(csv), str(tmp_path),
         json.dumps(verify_params)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout)
    assert state["rc"] == [0, 0, 0, 0, 0]
    assert state["import"] is False
    assert state["cold"] is False
    assert state["sample"] is False
    assert state["gaussian"] is True


LEGGAUSS_CHILD = r"""
import contextlib, io, sys
from qfields import quadrature
from qfields.cli import run

with contextlib.redirect_stdout(io.StringIO()):
    rc = run(["kernel-check", "--rho", "0.5", "--q", "0.5"])
print(rc, quadrature._leggauss.cache_info().currsize)
"""


def test_kernel_check_builds_no_gauss_legendre_nodes():
    # the residual ladder runs the trapezoid rule in theta
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", LEGGAUSS_CHILD],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]
