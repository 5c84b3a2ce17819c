"""Large sweeps, opt-in via the FLOWCERT_STRETCH environment variable.

Run with ``FLOWCERT_STRETCH=1 pytest tests/test_stretch.py -v -s``.  Each
sweep runs in a child interpreter and its peak RSS is bounded: the sweep
builds only the least shard of each symmetry orbit and the shards those
read, holds those of the degree below its last one, freeing each once the
last shard that reads it is checked, and a single shard of the last
degree.  The child reads its peak as ``VmHWM`` from
``/proc/self/status`` (Linux only).  ``getrusage``'s ``ru_maxrss`` would
not do: Linux carries the spawning process's peak across ``exec``, so
under pytest it reads at least pytest's own peak.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CHILD = """
import json, sys, time
import flowcert as fc
factors, n, d_max, m = json.loads(sys.argv[1])
started = time.monotonic()
report = fc.certify_degree(fc.make_group(factors), n, d_max, m)
print(json.dumps({
    "verdict": report.verdict,
    "fibers": [s.fiber_count for s in report.per_degree],
    "disconnected": sum(s.disconnected_count for s in report.per_degree),
    "elapsed_s": time.monotonic() - started,
    "peak_rss_mib": next(
        int(line.split()[1]) / 1024
        for line in open("/proc/self/status") if line.startswith("VmHWM:")
    ),
}))
"""


@pytest.mark.skipif(
    not os.environ.get("FLOWCERT_STRETCH"),
    reason="stretch sweeps run only with FLOWCERT_STRETCH=1",
)
@pytest.mark.skipif(sys.platform != "linux", reason="peak RSS is read from /proc")
@pytest.mark.parametrize(
    "factors,n,d_max,m,fibers,peak_mib",
    [
        # peak RSS on 2-core x86-64, CPython 3.11: 18 MiB (21 MiB when
        # every shard was built, 24 MiB with row-0 shards of key sets,
        # 39 MiB when the last degree was built whole)
        ([2], 8, 4, 2, [3153, 31744, 190577], 32),
        # 18 MiB (42 MiB when every shard was built, 44 MiB with row-0
        # shards of key sets, 136 MiB when the last degree was built whole)
        ([3], 5, 5, 3, [2187, 27907, 215703, 1181547], 80),
    ],
    ids=["z2-n8-d4-m2", "z3-n5-d5-m3"],
)
def test_stretch_sweep_verified(factors, n, d_max, m, fibers, peak_mib):
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([factors, n, d_max, m])],
        capture_output=True, text=True, check=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=src),
    )
    result = json.loads(proc.stdout)
    assert result["verdict"] == "verified"
    assert result["fibers"] == fibers
    assert result["disconnected"] == 0
    print(f"stretch sweep, factors {factors}, n={n}, d_max={d_max}, m={m}: "
          f"{result['elapsed_s']:.1f}s, peak RSS {result['peak_rss_mib']:.1f} MiB")
    assert result["peak_rss_mib"] < peak_mib
