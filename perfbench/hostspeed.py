"""The host's current speed, from a fixed pure-Python loop.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-30 % over tens of seconds to tens of minutes as other tenants load it.
The iteration times of most workloads follow the speed of the fixed loop
below closely enough to take most of that drift out (2-core Xeon guest,
25-second runs):

* target_garch over five minutes: medians in 26-second windows spread 22 %
  (IQR/median), the loop's medians 17 %, iteration times divided by the
  loop's time measured around them 4 %;
* ten runs per workload, in two sets: raw medians spread 10-15 %
  (target_garch), 10-14 % (ladder_garch) and 10-12 % (clt_garch), adjusted
  ones 3-5 %, 5-7 % and 5-11 %;
* the median of ten raw clt_garch runs moved from 2.86 s to 3.57 s between
  two sets 40 minutes apart.

ned_garch follows the loop less: over four sets of ten runs its raw medians
spread 4-16 % and its adjusted ones 8-17 %, so it is adjusted too, for one
rule on every workload. Set-up times did not follow the loop at all, so
``setup_s`` stays raw.

``adjust`` rescales a measured duration to the reference speed: the speed at
which ``calibrate`` takes ``REFERENCE_S``. The loop is benchmark code and
never changes with the program under test, so an adjusted time moves only
when the program's own work does.
"""

from __future__ import annotations

import time

LOOPS = 1_000_000
REFERENCE_S = 0.05  # about the loop's time in a quiet phase of a 2-core Xeon (Sapphire Rapids) guest


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i
    return time.perf_counter() - t0


def adjust(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured while the loop took ``calibration_s``, at the reference speed."""
    return seconds * REFERENCE_S / calibration_s
