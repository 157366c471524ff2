"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event engine in the style
of SimPy, purpose-built for the Data Vortex reproduction.  Every network,
NIC, and SPMD rank in :mod:`repro` is a :class:`Process` driven by this
engine; simulated time is a ``float`` number of seconds.

Highlights
----------
* **Determinism** — events scheduled for the same timestamp are processed
  in schedule order (a monotonically increasing sequence number breaks
  ties), so repeated runs with the same seed produce identical traces.
* **Processes** — plain Python generators that ``yield`` waitables
  (:class:`Timeout`, :class:`Event`, other processes, or
  :class:`AllOf`/:class:`AnyOf` conditions).
* **Resources** — counted acquisition, which models the PCIe bus's
  PIO lane and DMA engines.  Hardware queues (the VIC's surprise
  FIFO) keep their own word buffers and wake waiters with an
  :class:`Event`.

Example
-------
>>> from repro.sim import Engine
>>> eng = Engine()
>>> def hello(eng):
...     yield eng.timeout(1.5)
...     return "done at %.1f" % eng.now
>>> p = eng.process(hello(eng))
>>> eng.run()
>>> p.value
'done at 1.5'
"""

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessKilled
from repro.sim.resources import Resource
from repro.sim.rng import SeedSequenceFactory, derive_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "Process",
    "ProcessKilled",
    "Resource",
    "SeedSequenceFactory",
    "SimulationError",
    "Timeout",
    "derive_seed",
]
