"""The benchmark's result digests, pinned at its smoke scale and seed 5.

A change to the package that alters a trained parameter, a WER table, an
augmented WAV or a manifest changes a digest. Each workload runs in a
subprocess because ``bench/run.py`` pins BLAS to one thread before numpy is
imported, and the digests hold only at that thread count.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = {
    "paper-grid": "b7e17f551991b0f4fa58313be73175840300027a602dcbf4616143b1a7fc9072",
    "augment-da": "b1804da36811e6e36ac3f3cd1f504ff8526136d7af918207bacc421b21c2fa91",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_smoke_digest_pinned(workload):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(cmd + ["--scale", "smoke"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert f"digest {workload} {DIGESTS[workload]}" in proc.stdout.splitlines()
