"""The benchmark's span tracer still installs on the package and sees every radial and plane layer.

``perfbench/tracer.py`` replaces public functions by wrappers wherever they are
bound, so a renamed or re-signed function can silently drop out of the bench's
per-layer metrics.  The tracer patches module globals, so it runs in a fresh
interpreter here, never in the test process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# one small command per traced entry point; coarse grids keep the pass fast
COMMANDS = [
    ["verify", "--case", "thm21", "--N", "5", "--panels", "4", "--nodes", "16", "--doublings", "1"],
    ["identity", "--which", "estimate1", "--N", "5", "--panels", "4", "--nodes", "16", "--doublings", "1"],
    ["halfspace", "--which", "rellich1", "--N", "5", "--panels", "4", "--nodes", "8", "--doublings", "1"],
]

SCRIPT = """
import contextlib, io, json, sys
from tracer import MODULES, Tracer

tracer = Tracer()
tracer.install()
from poincare_hardy import cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main([*argv, "--format", "json"]))
metrics = tracer.layer_metrics()
print(json.dumps({"codes": codes, "calls": {layer: metrics[layer + ".layer_calls"] for layer in MODULES}}))
"""


def test_tracer_installs_and_records_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), str(REPO / "perfbench"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(COMMANDS)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(code in (0, 1) for code in result["codes"]), result["codes"]
    for layer in ("operators", "quadrature", "verify", "identities", "halfspace"):
        assert result["calls"][layer] > 0, (layer, result["calls"])
