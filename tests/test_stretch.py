"""Large sweeps, opt-in via the FLOWCERT_STRETCH environment variable.

Run with ``FLOWCERT_STRETCH=1 pytest tests/test_stretch.py -v -s``.  Each
sweep holds only integer key sets up to its last degree.
"""

from __future__ import annotations

import os
import time

import pytest

import flowcert as fc


@pytest.mark.skipif(
    not os.environ.get("FLOWCERT_STRETCH"),
    reason="stretch sweeps run only with FLOWCERT_STRETCH=1",
)
@pytest.mark.parametrize(
    "factors,n,d_max,m,fibers",
    [
        ([2], 8, 4, 2, (3153, 31744, 190577)),
        ([3], 5, 5, 3, (2187, 27907, 215703, 1181547)),
    ],
    ids=["z2-n8-d4-m2", "z3-n5-d5-m3"],
)
def test_stretch_sweep_verified(factors, n, d_max, m, fibers):
    started = time.monotonic()
    report = fc.certify_degree(fc.make_group(factors), n, d_max, m)
    assert report.verdict == "verified"
    assert tuple(s.fiber_count for s in report.per_degree) == fibers
    assert not any(s.disconnected_count for s in report.per_degree)
    elapsed = time.monotonic() - started
    print(f"stretch sweep, factors {factors}, n={n}, d_max={d_max}, m={m}: {elapsed:.1f}s")
