"""Calibration constants for the operation-level SA-1100 energy model.

The paper obtains software numbers by running the algorithms on a
StrongARM SA-1100 under Sim-Panalyzer (instruction-level power
simulation).  Our substitution counts architectural events
(:mod:`repro.algorithms.opcount`) and converts them to SA-1100 cycles with
the weights below, then to energy through the Table 5 power rail.

The weights are *documented knobs*, fixed once and used for every
experiment — they are not fitted per-table:

* ``mem_read``/``mem_write`` = 40 cycles: the SA-1100 runs at 200 MHz
  against slow external SRAM/DRAM; a miss costs tens of cycles.  This
  single number reproduces the ~0.5 Mpps ceiling [12] reports for RFC
  (11 dependent table reads/packet -> ~450 cycles -> ~0.45 Mpps).
* ``div`` = 20 cycles: ARM v4 has no divide unit; software division costs
  tens of cycles (this is why the paper strips region compaction, which
  divides per node, from the hardware algorithm).
* ``alloc`` = 60 cycles: allocator bookkeeping per created node.
* ``alu`` = 1, ``mul`` = 3, ``branch`` = 2: standard scalar costs.
"""

from __future__ import annotations

#: SA-1100 cycles charged per counted operation.
SA1100_CYCLES_PER_OP: dict[str, float] = {
    "alu": 1.0,
    "mul": 3.0,
    "div": 20.0,
    "mem_read": 40.0,
    "mem_write": 40.0,
    "alloc": 60.0,
    "branch": 2.0,
}

#: Fraction of a device's reported power drawn while actively classifying;
#: post-layout VCD analysis reports averages slightly below the synthesis
#: peak (visible in the paper's Table 6: ASIC energy/packet is ~0.94x
#: peak-power x cycle-time at 1.0 cycles/packet).
ACTIVE_POWER_FRACTION = 0.94

#: Trace length used by the table experiments (packets per ruleset).
DEFAULT_TRACE_PACKETS = 100_000
