"""Large sweeps, opt-in via the FLOWCERT_STRETCH environment variable.

Run with ``FLOWCERT_STRETCH=1 pytest tests/test_stretch.py -v -s``.  Each
sweep runs in a child interpreter and its peak RSS is bounded: the sweep
builds only the least shard of each symmetry orbit and the shards those
read, holds those below degree d_max - 1 to the end, those of degree
d_max - 1 until the last shard that reads them is built, and a single
shard of the last degree.  The child reads its peak as ``VmHWM`` from
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
import hashlib, json, sys, time
import flowcert as fc
factors, n, d_max, m, find_all, sweep_cap = json.loads(sys.argv[1])
started = time.monotonic()
report = fc.certify_degree(
    fc.make_group(factors), n, d_max, m, find_all=find_all, sweep_cap=sweep_cap
)
elapsed_s = time.monotonic() - started
peak_rss_mib = next(
    int(line.split()[1]) / 1024
    for line in open("/proc/self/status") if line.startswith("VmHWM:")
)
data = fc.report_to_json(report, include_elapsed=False)
print(json.dumps({
    "verdict": report.verdict,
    "fibers": [s.fiber_count for s in report.per_degree],
    "disconnected": [s.disconnected_count for s in report.per_degree],
    "witnesses": len(report.witnesses),
    "report_sha256": hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest(),
    "elapsed_s": elapsed_s,
    "peak_rss_mib": peak_rss_mib,
}))
"""

STRETCH = pytest.mark.skipif(
    not os.environ.get("FLOWCERT_STRETCH"),
    reason="stretch sweeps run only with FLOWCERT_STRETCH=1",
)
LINUX = pytest.mark.skipif(sys.platform != "linux", reason="peak RSS is read from /proc")


def _sweep(factors, n, d_max, m, find_all=False, sweep_cap=1 << 27):
    """The child's result for ``certify_degree``, run with these arguments;
    ``sweep_cap`` defaults to the library's default cap."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([factors, n, d_max, m, find_all, sweep_cap])],
        capture_output=True, text=True, check=True, timeout=600,
        env=dict(os.environ, PYTHONPATH=src),
    )
    result = json.loads(proc.stdout)
    print(f"stretch sweep, factors {factors}, n={n}, d_max={d_max}, m={m}, "
          f"find_all={find_all}: {result['elapsed_s']:.1f}s, "
          f"peak RSS {result['peak_rss_mib']:.1f} MiB")
    return result


@STRETCH
@LINUX
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
        # the sweep on which keeping every shard below degree d_max - 1
        # costs most: 35.4 MiB on 2-core x86-64, CPython 3.11 (33.3 MiB when
        # each shard was freed after its last reader); its 7.4e9 degree-5
        # multisets are above the default cap, so this test lifts the cap,
        # which the other cases are under
        ([3], 6, 5, 3, [14094, 307090, 3569427, 27261927], 48),
        # a large group: the orbit tables, read off each shift orbit's rows
        # with a count at code 0, are most of the sweep: 22.6 MiB on
        # 2-core x86-64, CPython 3.11 (58.0 MiB when every row value was
        # sorted and mapped to its orbit's least row)
        ([7, 7], 2, 4, 3, [1225, 20825, 270725], 32),
    ],
    ids=["z2-n8-d4-m2", "z3-n5-d5-m3", "z3-n6-d5-m3", "z7x7-n2-d4-m3"],
)
def test_stretch_sweep_verified(factors, n, d_max, m, fibers, peak_mib):
    result = _sweep(factors, n, d_max, m, sweep_cap=1 << 40)
    assert result["verdict"] == "verified"
    assert result["fibers"] == fibers
    assert not any(result["disconnected"])
    assert result["peak_rss_mib"] < peak_mib


@STRETCH
@LINUX
@pytest.mark.parametrize(
    "factors,n,d_max,m,fibers,disconnected,witnesses,report_sha256,peak_mib",
    [
        # past the first failing degree, each key of a rep shard that is
        # the least of its tail-row orbit is decided from its members;
        # 6.9-7.5 s and 25 MiB on 2-core x86-64, CPython 3.11 (10.4-11.6 s
        # when every key of a rep shard was decided, 44-61 s and 26 MiB
        # when a fiber's remaining counts were lists of lists)
        ([2, 2], 4, 5, 3, [1720, 25152, 232569, 1535232], [0, 0, 480, 3840], 4320,
         "9d58aba1d59d1c57f84d05e2064e57a709e1a5d59c49b796b79d98e1daf42d59", 48),
    ],
    ids=["z2x2-n4-d5-m3-find-all"],
)
def test_stretch_find_all_sweep(
    factors, n, d_max, m, fibers, disconnected, witnesses, report_sha256, peak_mib
):
    result = _sweep(factors, n, d_max, m, find_all=True)
    assert result["verdict"] == "not-verified"
    assert result["fibers"] == fibers
    assert result["disconnected"] == disconnected
    assert result["witnesses"] == witnesses
    assert result["report_sha256"] == report_sha256
    assert result["peak_rss_mib"] < peak_mib
