"""The simulator never imports numpy.

numpy is a test-only dependency (reference numerics for the workload
kernels); the simulator, its public API and the job service must run
without it.  A fresh interpreter imports ``repro.api`` and
``repro.service``, runs a short burst-engine workstation window and a
short multiprocessor run, and then checks ``sys.modules``.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
import repro.api, repro.service
from repro.api import Simulation
from repro.config import MultiprocessorParams
ws = Simulation.from_config(scheme="interleaved", n_contexts=2,
                            engine="burst").load("R1")
assert ws.run(warmup=500, measure=2_000).retired > 0
mp = Simulation.from_config(MultiprocessorParams(n_nodes=2),
                            scheme="interleaved", n_contexts=2,
                            engine="burst").load("mp3d", scale=0.25)
assert mp.run(until=20_000).retired > 0
print("numpy" in sys.modules)
"""


def test_simulation_does_not_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
