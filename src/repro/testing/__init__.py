"""Deterministic testing utilities (fault injection, chaos harnesses,
virtual-clock concurrency control, a brute-force answer oracle).

Everything here is test infrastructure shipped with the library so the
chaos suite, the fault benchmarks and downstream users exercise the
fault-tolerant execution paths with the *same* deterministic injector
(:class:`~repro.testing.faults.FaultInjector`), and the serving layer's
timing-window behaviour with the same deterministic virtual-clock
event loop (:mod:`repro.testing.clock`).  Query answers are checked
against :mod:`repro.testing.oracle`, a brute-force scan that shares no
index or planner code with what it checks.
"""

from .clock import VirtualClock, VirtualClockLoop, run_virtual, virtual_loop
from .faults import FaultInjector, InjectedFault

__all__ = ["FaultInjector", "InjectedFault", "VirtualClock",
           "VirtualClockLoop", "run_virtual", "virtual_loop"]
