"""The paper's published table values, embedded for side-by-side reporting.

Every experiment prints paper-vs-measured columns.  Values transcribed
from Kennedy, Wang & Liu (IPDPS 2008) Tables 2-8.  Keys follow ``<impl>_<algo>``: ``sw`` = original software
algorithm on the StrongARM, ``hw`` = modified algorithm on the
accelerator; where a table splits hardware results by device the keys are
``asic``/``fpga``.
"""

from __future__ import annotations

#: Ruleset sizes of the acl1 tables (2, 3, 6, 7, 8).
ACL1_SIZES = (60, 150, 500, 1000, 1600, 2191)

#: Table 2: memory for search structure + ruleset (bytes), spfac=4, speed=1.
TABLE2_BYTES = {
    "sw_hicuts": (2200, 6200, 28776, 43020, 79444, 110704),
    "sw_hypercuts": (1745, 5382, 13372, 25592, 43298, 56161),
    "hw_hicuts": (3000, 6000, 24000, 35400, 69600, 97200),
    "hw_hypercuts": (3000, 5400, 15600, 28800, 46800, 61800),
}

#: Table 3: energy to build the search structure (Joules).
TABLE3_JOULES = {
    "sw_hicuts": (1.32e-2, 7.44e-2, 7.61e-1, 2.47e0, 7.46e0, 3.79e1),
    "sw_hypercuts": (9.58e-3, 1.00e-1, 2.44e-1, 6.66e-1, 1.65e0, 2.17e0),
    "hw_hicuts": (9.94e-3, 3.94e-2, 2.89e-1, 1.00e0, 2.05e0, 3.20e0),
    "hw_hypercuts": (4.65e-2, 8.81e-2, 4.20e-1, 7.30e-1, 1.34e0, 1.84e0),
}

#: Table 4: per family, sizes / memory bytes / worst-case cycles.
TABLE4 = {
    "acl1": {
        "sizes": (300, 1200, 2500, 5000, 10000, 15000, 20000, 24920),
        "hicuts_bytes": (7800, 30600, 63600, 127200, 254400, 384000, 471600, 589200),
        "hicuts_cycles": (2, 2, 2, 4, 4, 4, 4, 5),
        "hypercuts_bytes": (7800, 30600, 63600, 127200, 254400, 384000, 468600, 589200),
        "hypercuts_cycles": (2, 2, 2, 4, 4, 4, 5, 5),
    },
    "fw1": {
        "sizes": (300, 1200, 2500, 5000, 10000, 15000, 20000, 23087),
        "hicuts_bytes": (7200, 28200, 59400, 142200, 1086600, 1244400, 1931400, 3311400),
        "hicuts_cycles": (2, 2, 2, 3, 3, 4, 6, 8),
        "hypercuts_bytes": (7200, 28200, 59400, 142200, 657600, 1226400, 2964600, 8256000),
        "hypercuts_cycles": (2, 2, 2, 3, 4, 4, 6, 6),
    },
    "ipc1": {
        "sizes": (300, 1200, 2500, 5000, 10000, 15000, 20000, 24274),
        "hicuts_bytes": (7200, 27000, 64800, 144000, 292800, 379800, 491400, 585000),
        "hicuts_cycles": (2, 2, 3, 3, 3, 4, 5, 5),
        "hypercuts_bytes": (7200, 28200, 61800, 144000, 292800, 379800, 491400, 585000),
        "hypercuts_cycles": (2, 2, 3, 3, 3, 4, 5, 5),
    },
}

#: Table 4 size grids per family.
TABLE4_SIZES = {family: data["sizes"] for family, data in TABLE4.items()}

#: Table 5: device comparison (see repro.energy.technology for the specs).
TABLE5 = {
    "Virtex5SX95T": {"process_nm": 65, "voltage_v": 1.0, "freq_mhz": 77,
                     "power_mw": 1811.0, "slices": 3280, "block_rams": 134},
    "ASIC": {"process_nm": 65, "voltage_v": 1.08, "freq_mhz": 226,
             "power_mw": 18.32, "area_gates": 51488},
    "SA-1100": {"process_nm": 180, "voltage_v": 1.8, "freq_mhz": 200,
                "power_mw": 42.45, "area_gates": 17600998},
}

#: Table 6: average normalised energy per packet (Joules).
TABLE6_JOULES = {
    "sw_hicuts": (4.60e-7, 5.69e-7, 6.72e-7, 8.62e-7, 1.09e-6, 1.09e-6),
    "sw_hypercuts": (7.82e-7, 1.09e-6, 1.28e-6, 1.85e-6, 1.40e-6, 1.94e-6),
    "asic_hicuts": (7.58e-11, 7.32e-11, 1.00e-10, 1.24e-10, 1.81e-10, 2.07e-10),
    "asic_hypercuts": (7.90e-11, 7.55e-11, 1.21e-10, 1.19e-10, 1.42e-10, 1.46e-10),
    "fpga_hicuts": (2.39e-8, 2.43e-8, 3.21e-8, 3.94e-8, 4.89e-8, 5.22e-8),
    "fpga_hypercuts": (2.38e-8, 2.41e-8, 3.09e-8, 3.45e-8, 3.86e-8, 3.87e-8),
}

#: Table 7: packets classified per second.
TABLE7_PPS = {
    "sw_hicuts": (88125, 71181, 60245, 47544, 37760, 37399),
    "sw_hypercuts": (51794, 37323, 31721, 22249, 29201, 21168),
    "asic_hicuts": (226000000, 221919129, 164389580, 135333231, 105444530, 99498019),
    "asic_hypercuts": (226000000, 226000000, 171530362, 155475310, 161201374, 136131129),
    "fpga_hicuts": (77000000, 75609614, 56008839, 46109109, 35925791, 33899767),
    "fpga_hypercuts": (77000000, 77000000, 58441760, 52971676, 46663555, 46380959),
}

#: Table 8: worst-case memory accesses.
TABLE8_ACCESSES = {
    "sw_hicuts": (17, 27, 29, 46, 58, 58),
    "sw_hypercuts": (22, 38, 52, 103, 70, 114),
    "hw_hicuts": (2, 3, 3, 4, 5, 5),
    "hw_hypercuts": (2, 2, 3, 4, 4, 4),
}

#: Headline claims (Sections 5.2/5.3 and the abstract).
CLAIMS = {
    "max_throughput_gain_vs_hicuts": 4269,
    "max_throughput_gain_vs_rfc": 546,
    "max_energy_saving_vs_hicuts": 7773,
    "build_energy_saving_hicuts_2191": 11.84,
    "fpga_mpps": 77,
    "asic_mpps": 226,
    "fpga_power_w": 1.8,
    "ayama_10128_power_w": 2.9,
    "asic_power_133mhz_mw": 11.65,
    "asic_power_226mhz_mw": 19.79,
}
