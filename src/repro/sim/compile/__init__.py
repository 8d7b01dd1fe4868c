"""Closure-compiled simulation: HDL ASTs → Python closures.

:mod:`.verilog` and :mod:`.vhdl` are the simulator's evaluators. Each lowers
elaborated expressions and statement bodies into plain Python closures
*once* per elaborated design: identifier lookups, context widths, operator
dispatch, and constant select bounds are all resolved statically, so each
kernel activation runs straight-line closure calls instead of a tree walk.
Both compilers are total: every construct compiles, and a construct that is
in error when evaluated compiles to a closure that reports the diagnostic
and aborts with its text when called. Compiling is silent, so it can wait:
elaboration keeps every diagnostic-bearing fact eager (VHDL variable types,
sensitivity lists) and defers each process *body* until the process first
starts, inside :meth:`Simulator.run <repro.sim.kernel.Simulator.run>`. A
compile-only elaboration and the batch tier's compile step never build a
body at all. A body whose compilation raises is refused as a named run-time
error, counted in the ``sim.compile.refusals`` metric.

There are two simulation paths. The event kernel runs every process as its
own closure. The batch tier (:mod:`repro.sim.batch`) evaluates a registered
golden testbench's whole stimulus set in one pass: :mod:`.level` records
which processes it can plan from, :mod:`.twostate` lowers their expressions
to masked-int Python source, and :mod:`.vector` compiles that source into
one plain loop over the stimulus vectors. ``REPRO_SIM_NO_BATCH=1`` turns
the batch tier off, so every run takes the kernel; tests use it to get the
kernel's reference answer.
"""

from __future__ import annotations

import os

from repro.obs import get_tracer
from repro.sim.kernel import SimulationError
from repro.sim.runtime import Process


def add_process(design, name, build):
    """Add a process to *design* whose body *build* compiles at first start.

    ``build()`` returns the process factory. It runs once, when the process
    first starts (:meth:`Process.start`), so a process that never starts is
    never built. The compilers are total, so a builder that raises is a
    compiler defect: it is refused loudly, as a :class:`SimulationError`
    ``simulation compiler refused process '<name>': <Type>: <message>``
    counted in ``sim.compile.refusals``, which fails the run with that text.
    An evaluation abort (its diagnostic already reported) propagates
    unchanged.
    """
    process = Process(name)

    def build_or_refuse():
        try:
            return build()
        except SimulationError:
            raise
        except Exception as exc:
            get_tracer().metrics.counter("sim.compile.refusals").inc()
            raise SimulationError(
                f"simulation compiler refused process '{process.name}': "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    process.build = build_or_refuse
    return design.add_process(process)


def batch_disabled() -> bool:
    """True when ``REPRO_SIM_NO_BATCH`` turns off the batch stimulus tier."""
    return os.environ.get("REPRO_SIM_NO_BATCH", "0") not in ("", "0")
