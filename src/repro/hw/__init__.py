"""Hardware substrate models.

Everything under :mod:`repro.hw` is a transaction-level model of the paper's
experimental platform (Table 2): a 12-core Broadwell Xeon with SMT-2, an
Arria 10 FPGA reachable over CCI-P (2x PCIe Gen3x8 links + 1x UPI link), the
Dagger NIC synthesized in the FPGA's green region, and a ToR switch model.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "platform": ("Machine", "MachineConfig"),
    "cluster": ("Cluster",),
    "cpu": ("Core", "SoftwareThread"),
    "calibration": ("Calibration", "DEFAULT_CALIBRATION"),
})
