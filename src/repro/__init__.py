"""repro: a simulation-based reproduction of "Experiences with a
High-Speed Network Adaptor: A Software Perspective" (SIGCOMM 1994).

Public entry points:

* :class:`repro.net.Host` / :class:`repro.net.BackToBack` -- assemble
  complete hosts (hardware + OSIRIS board + OS + protocol stack).
* :mod:`repro.bench.harness` -- regenerate the paper's tables/figures.
* :mod:`repro.osiris` -- the board and its lock-free queues.
* :mod:`repro.fbufs` / :mod:`repro.adc` -- the section 3 OS mechanisms.
"""

from .hw.specs import DEC3000_600, DS5000_200, MACHINES
from .net import BackToBack, Host
from .sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "Host", "BackToBack", "Simulator",
    "DS5000_200", "DEC3000_600", "MACHINES",
    "__version__",
]
