"""Multi-clock-domain discrete-event simulator.

Executes a modulo schedule iteration by iteration on the modelled
hardware (section 2.1): per-domain clocks, function-unit issue slots,
register buses, synchronisation queues.  The simulator re-checks every
architectural constraint *dynamically* — operand arrival before use, slot
occupancy at each instant — independently of the scheduler's static
validation, and counts the events it sees.  The energy meter does not run
it: :class:`PowerMeter` meters each schedule with its analytic counts, and
the tests use :class:`LoopExecutor` as the oracle those counts must equal.

* :mod:`~repro.sim.events` — event types,
* :mod:`~repro.sim.engine` — the event loop,
* :mod:`~repro.sim.executor` — schedule execution, legality checking and
  steady-state extrapolation (the test oracle),
* :mod:`~repro.sim.power_meter` — analytic counts + calibrated model =
  measured energy.
"""

from repro.sim.events import CopyArrive, CopyStart, OpComplete, OpIssue, SimEvent
from repro.sim.engine import EventEngine
from repro.sim.executor import LoopExecutor, SimulationResult
from repro.sim.power_meter import PowerMeter, MeasuredExecution

__all__ = [
    "SimEvent",
    "OpIssue",
    "OpComplete",
    "CopyStart",
    "CopyArrive",
    "EventEngine",
    "LoopExecutor",
    "SimulationResult",
    "PowerMeter",
    "MeasuredExecution",
]
