"""Result bytes do not depend on the host.

Both noise-free golden configs run in fresh interpreters with the BLAS
and OpenMP thread counts forced to 1 and to 2, and, where the host has
more than one CPU, pinned to CPU 0 and left on every CPU.  Thread
counts are read when NumPy loads, which is why each setting needs its
own process.  Every run must print the same bytes, equal to the golden.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
GOLDEN = REPO / "tests" / "golden" / "pre_uncertainty_results.json"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")

# Pins the CPUs given in argv[1] (JSON; null keeps the inherited set)
# before NumPy is imported, then prints every golden pin's result.
SCRIPT = """
import json, os, sys
cpus = json.loads(sys.argv[1])
if cpus is not None:
    os.sched_setaffinity(0, cpus)
from repro.core.experiment import Experiment, ExperimentConfig
from repro.export import result_to_dict
golden = json.loads(open(sys.argv[2]).read())
print(json.dumps({
    pin: result_to_dict(Experiment(ExperimentConfig(**entry["config"])).run())
    for pin, entry in golden.items()
}, sort_keys=True))
"""


def run_pins(cpus=None, threads=None):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(REPO / "src")
    if threads is not None:
        env.update({name: str(threads) for name in THREAD_VARS})
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(cpus), str(GOLDEN)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout


def settings():
    out = [("threads=1", None, 1), ("threads=2", None, 2)]
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        out += [("cpu 0", [cpus[0]], None), ("all cpus", cpus, None)]
    return out


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs Linux CPU affinity")
def test_result_bytes_do_not_depend_on_threads_or_affinity():
    outputs = {name: run_pins(cpus, threads)
               for name, cpus, threads in settings()}
    digests = {name: hashlib.sha256(out.encode()).hexdigest()[:12]
               for name, out in outputs.items()}
    assert len(set(digests.values())) == 1, digests
    golden = json.loads(GOLDEN.read_text())
    results = json.loads(next(iter(outputs.values())))
    for pin, entry in golden.items():
        assert results[pin] == entry["result"], pin
