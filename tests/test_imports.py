"""What `import cpwloss` and each CLI command load, and the literal constants.

scipy is imported inside the functions that use it, so a command pays only
for the part of scipy it needs. These checks count loaded modules in a fresh
interpreter instead of timing anything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants

import cpwloss
from cpwloss import fieldsolve, s21fit, tlsfit

SRC = str(Path(cpwloss.__file__).resolve().parent.parent)

# runs each argv through cli.main in one fresh interpreter, then prints the
# loaded scipy and yaml modules as a JSON list
PROBE = """
import json, sys
import cpwloss, cpwloss.cli
for argv in json.loads(sys.argv[1]):
    if cpwloss.cli.main(argv) != 0:
        sys.exit(f"cpwloss {' '.join(argv)} failed")
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("scipy", "yaml"))))
"""


def loaded_after(tmp_path, *commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_scipy_or_yaml(tmp_path):
    assert loaded_after(tmp_path) == set()


def test_commands_without_solve_or_fit_load_no_scipy(tmp_path):
    records = tmp_path / "tls.json"
    records.write_text(json.dumps([
        {"f_tan_delta0": 1e-6, "f_tan_delta0_err": 1e-7, "n_c": 10.0,
         "b": 0.4, "delta_other": 5e-8, "q_i_low": 4e5, "q_i_high": 2e6},
        {"f_tan_delta0": 2e-6, "f_tan_delta0_err": 2e-7, "n_c": 20.0,
         "b": 0.3, "delta_other": 6e-8, "q_i_low": 3e5, "q_i_high": 1e6},
    ]))
    assert loaded_after(
        tmp_path,
        ["synth", "--s21", "fr=6e9,ql=5e5,qc=1e6,phi=0.1,tau=4e-8",
         "--seed", "1", "--output", "trace.csv"],
        ["synth", "--tls", "F=1e-6,nc=10,b=0.4,other=5e-8",
         "--seed", "1", "--output", "sweep.csv"],
        ["budget", "--entry", "substrate:0.911:1.3e-7",
         "--entry", "air:0.088:0", "--output", "budget.json"],
        ["stats", str(records), "--chip", "c", "--output", "stats.json"],
    ) == set()


def test_simulate_loads_sparse_solver_but_not_optimize(tmp_path):
    loaded = loaded_after(
        tmp_path, ["simulate", "--refinement", "1", "--output", "sim.json"])
    assert "scipy.sparse.linalg" in loaded
    assert "scipy.optimize" not in loaded


@pytest.mark.parametrize("value, name", [
    (fieldsolve.epsilon_0, "epsilon_0"),
    (s21fit.hbar, "hbar"),
    (tlsfit.h, "h"),
    (tlsfit.k_B, "k"),
])
def test_literal_constants_equal_scipy(value, name):
    # exact: a CODATA revision in scipy shows up here, not as silent drift
    assert value == getattr(scipy.constants, name)
