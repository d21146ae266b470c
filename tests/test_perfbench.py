import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_family_smoke_run_is_correct():
    # the tracer reads graphcm internals by name (the profile table among
    # them): a rename must fail here, not first in a benchmark run
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "family",
            "--seed", "1", "--seconds", "1", "--smoke", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
