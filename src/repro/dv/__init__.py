"""Data Vortex substrate: switch, VIC, and the ``dvapi`` programming model.

This package implements, from the published description (paper §II–III and
the prior optical-switch literature), everything the paper's cluster used on
the Data Vortex side:

* :mod:`repro.dv.topology` / :mod:`repro.dv.switch` — the multilevel
  cylinder deflection-routing switch, simulated cycle by cycle with
  failed nodes and a hop TTL (one engine; the scalar per-node model is
  a test oracle);
* :mod:`repro.dv.flow` — a calibrated flow-level model of the same switch
  used for long benchmark runs (validated against the cycle model);
* :mod:`repro.dv.vic` — the Vortex Interface Controller: DV memory, group
  counters, surprise FIFO, DMA engines, PCIe link;
* :mod:`repro.dv.api` — the ``dvapi``-style programming interface the
  paper's benchmarks were written against.
"""

from repro.dv.config import DVConfig
from repro.dv.packet import AddressSpace, Packet, PacketHeader
from repro.dv.topology import DataVortexTopology
from repro.dv.switch import CycleSwitch
from repro.dv.flow import FlowNetwork
from repro.dv.dvmemory import DVMemory
from repro.dv.counters import GroupCounters
from repro.dv.fifo import SurpriseFIFO
from repro.dv.pcie import PCIeBus
from repro.dv.vic import VIC
from repro.dv.api import DataVortexAPI
from repro.dv.barrier import FastBarrier, HardwareBarrier

__all__ = [
    "AddressSpace",
    "CycleSwitch",
    "DVConfig",
    "DVMemory",
    "DataVortexAPI",
    "DataVortexTopology",
    "FastBarrier",
    "FlowNetwork",
    "GroupCounters",
    "HardwareBarrier",
    "PCIeBus",
    "Packet",
    "PacketHeader",
    "SurpriseFIFO",
    "VIC",
]
