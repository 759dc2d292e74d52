"""qinfo runs on NumPy alone: nothing in the package imports SciPy.

SciPy is a test extra, used only as an oracle.  The source check reads every
module's imports; the run check blocks SciPy in a fresh interpreter, because
the test session itself may already have imported it, and then runs every
command, the HSW estimate and cyclic averaging.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path

sys.modules["scipy"] = None   # any `import scipy...` now raises ImportError

import numpy as np

import qinfo
from qinfo import cli, codes, formats
from qinfo.capacity import hsw_capacity_estimate
from qinfo.states import cyclic_averaging, dag, identity_channel, is_unitary, random_unitary

work = Path(sys.argv[1])
(work / "rho.json").write_text(json.dumps(formats.matrix_to_json(np.eye(2) / 2)))
(work / "hamming.txt").write_text(formats.code_to_text(codes.hamming_7_4()))
(work / "bsc.json").write_text(json.dumps({"rows": [[0.9, 0.1], [0.1, 0.9]]}))
(work / "qkd.json").write_text(json.dumps({"n": 64, "channel": {"kind": "ideal"}}))
commands = [
    ["entropy", "--inline", "[0.5, 0.5]"],
    ["qinfo", "--density", str(work / "rho.json")],
    ["codes", "--code", str(work / "hamming.txt")],
    ["capacity", "--channel", str(work / "bsc.json")],
    ["compress", "--probs", "[0.75, 0.25]", "--blocks", "4,6", "--eps", "0.3", "--rate", "0.7"],
    ["compress", "--probs", "[0.75, 0.25]", "--blocks", "2,4", "--eps", "0.3", "--quantum"],
    ["qkd", "--config", str(work / "qkd.json"), "--seed", "1", "--trials", "2"],
]
codes_out = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes_out.append(cli.main(argv))

chi, ensemble = hsw_capacity_estimate(identity_channel(2), restarts=0)
# a degenerate normal matrix: eigenvalue 1 twice, then i
u = random_unitary(3, np.random.default_rng(5))
a = u @ np.diag([1.0, 1.0, 1j]) @ dag(u)
unitaries, average = cyclic_averaging(a)
print(json.dumps({
    "exit_codes": codes_out, "chi": chi, "members": len(ensemble),
    "average_error": float(np.max(np.abs(average - np.trace(a) * np.eye(3)))),
    "unitaries": len(unitaries), "all_unitary": all(is_unitary(x) for x in unitaries),
    "scipy_loaded": sorted(m for m, mod in sys.modules.items()
                           if (m == "scipy" or m.startswith("scipy.")) and mod is not None),
}))
"""


def test_no_module_imports_scipy():
    found = []
    for path in sorted((SRC / "qinfo").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert found == []


def test_every_path_runs_with_scipy_blocked(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit_codes"] == [0] * 7
    assert abs(result["chi"] - 1.0) < 1e-6 and result["members"] == 4
    assert result["average_error"] < 1e-7 and result["unitaries"] == 3
    assert result["all_unitary"]
    assert result["scipy_loaded"] == []
