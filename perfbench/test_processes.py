"""The benchmark leaves no process behind."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Starts what a sweep starts: a shared-memory segment, like the runner's
# world (which launches the resource tracker), and a busy worker.
_SCRIPT = """
import json
import multiprocessing
import time
from multiprocessing import shared_memory
from perfbench import processes

if __name__ == "__main__":
    shm = shared_memory.SharedMemory(create=True, size=4096)
    worker = multiprocessing.get_context("fork").Process(target=time.sleep,
                                                     args=(60,))
    worker.start()
    shm.close()
    shm.unlink()
    before = processes.child_pids()
    processes.stop_all()
    print(json.dumps({"before": len(before),
                      "after": processes.child_pids()}))
"""


def test_stop_all_ends_the_resource_tracker_and_every_child():
    done = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["before"] == 2, "the tracker and the worker should run"
    assert result["after"] == []
