"""The model packages load no experiment harness.

A simulation built from the model -- the kernel, the cell layer, the
adaptation layers, the host, the interface and the planes around it --
must not pay for the code that drives experiments: the sweep runner's
process pool and result store, the observation layer, the experiment
table, the linter and the CLI.  Each experiment driver lives in its own
module and is imported by the harness that runs it, never by its
package.  The check runs in a fresh interpreter, where nothing else has
loaded these modules first.
"""

import json
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

MODEL_PACKAGES = [
    "repro",
    "repro.sim",
    "repro.atm",
    "repro.aal",
    "repro.host",
    "repro.nic",
    "repro.tm",
    "repro.net",
    "repro.scale",
    "repro.faults",
    "repro.resilience",
    "repro.analysis",
    "repro.baselines",
    "repro.workloads",
]

HARNESS_PACKAGES = [
    "repro.runner",
    "repro.obs",
    "repro.results",
    "repro.devtools",
    "repro.cli",
]

EXPERIMENT_DRIVERS = [
    "repro.faults.campaign",
    "repro.faults.sweep",
    "repro.scale.experiment",
    "repro.resilience.experiment",
    "repro.tm.experiment",
]

#: The process pool, and ``hashlib`` (OpenSSL's libcrypto), which the
#: model loads only when it first seeds a random stream.
HEAVY_STDLIB = ["concurrent.futures", "hashlib"]

PROBE = """
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps(sorted(sys.modules)))
"""


def test_model_packages_load_no_harness():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *MODEL_PACKAGES],
        capture_output=True,
        text=True,
        cwd=SRC,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert set(MODEL_PACKAGES) <= set(loaded)
    harness = [
        name
        for name in loaded
        if any(
            name == package or name.startswith(package + ".")
            for package in HARNESS_PACKAGES
        )
    ]
    drivers = [name for name in EXPERIMENT_DRIVERS if name in loaded]
    stdlib = [name for name in HEAVY_STDLIB if name in loaded]
    found = harness + drivers + stdlib
    assert not found, f"the model packages load {len(found)}: {found}"
