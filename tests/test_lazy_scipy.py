"""SciPy is loaded only by cyclic averaging.

Every command, the HSW estimate included, runs without loading it.  The check
runs in a fresh interpreter, because the test session itself may already have
imported SciPy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path

import numpy as np

import qinfo
from qinfo import cli, codes, formats

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
before = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

from qinfo.capacity import hsw_capacity_estimate
from qinfo.states import cyclic_averaging, identity_channel

chi, ensemble = hsw_capacity_estimate(identity_channel(2), restarts=0)
after_hsw = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
a = np.diag([1.0, 2.0, 0.5]).astype(complex)
unitaries, average = cyclic_averaging(a)
print(json.dumps({
    "exit_codes": codes_out, "scipy_before": before, "scipy_after_hsw": after_hsw,
    "chi": chi, "members": len(ensemble),
    "average_error": float(np.max(np.abs(average - np.trace(a) * np.eye(3)))),
    "unitaries": len(unitaries), "scipy_after": "scipy" in sys.modules,
}))
"""


def test_non_hsw_commands_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit_codes"] == [0] * 7
    assert result["scipy_before"] == []
    # the HSW estimate runs its own simplex search, without SciPy
    assert abs(result["chi"] - 1.0) < 1e-6 and result["members"] == 4
    assert result["scipy_after_hsw"] == []
    # cyclic averaging, the one SciPy user, still works once asked for
    assert result["average_error"] < 1e-7 and result["unitaries"] == 3
    assert result["scipy_after"]
