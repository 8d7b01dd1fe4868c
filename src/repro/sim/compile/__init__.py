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
starts, inside :meth:`Simulator.run <repro.sim.kernel.Simulator.run>`, or
when a batch plan is built. A compile-only elaboration never builds a body
at all. A body whose compilation raises is refused as a named run-time
error, a :class:`CompilerRefusal`; the run it fails counts it once in the
``sim.compile.refusals`` metric.

There are two simulation paths over these closures, and both run every
process's own compiled body. The event kernel schedules the bodies by
their waits. The batch tier (:mod:`repro.sim.batch`) evaluates a
generated testbench's whole stimulus set without the event loop:
it steps each body once per activation, ordered by the facts the
elaborators record per process (:class:`~repro.sim.runtime.ProcessFacts`:
read set, write set, sensitivity, and whether one activation keeps no
state). The compilers mark, in the elaborator's ``unsettled`` flag, each
closure they emit that can abort on some operand values or reads
simulator state; :func:`add_process` records the flag per body as
``Process.unsettled``, and such a process stays on the kernel. The input
picks the path: ``str(testbench)`` is plain text with no stimulus bundle,
so a set that holds it runs on the kernel, which is how tests get the
kernel's reference answer.
"""

from __future__ import annotations

from repro.sim.kernel import SimulationError
from repro.sim.runtime import Process


class CompilerRefusal(SimulationError):
    """A process body whose compiler raised: the run that starts the
    process fails with this text. A batch plan that meets it is refused
    instead, and the kernel's run of the set then fails with it."""


def add_process(elab, name, build, facts):
    """Add a process to ``elab.design`` whose body *build* compiles at first
    start.

    ``build()`` returns the process factory. It runs once, when the process
    is first compiled (:meth:`Process.compile`), so a process that never
    starts is never built; the build returns the elaborator's ``unsettled``
    flag for this body, which becomes ``Process.unsettled``. Nothing the
    process holds refers back to it, and the elaborator keeps no design
    once it has returned one, so a design no run started is freed as soon
    as it is dropped, without the cyclic collector. *facts* computes the
    process's :class:`~repro.sim.runtime.ProcessFacts` when the batch tier
    asks for them. The compilers are total, so a builder that raises is a
    compiler defect: it is refused loudly, as a :class:`CompilerRefusal`
    ``simulation compiler refused process '<name>': <Type>: <message>``,
    which fails the run with that text. An evaluation abort (its diagnostic
    already reported) propagates unchanged.
    """
    process = Process(name)

    def build_or_refuse():
        elab.unsettled = False
        try:
            factory = build()
        except SimulationError:
            raise
        except Exception as exc:
            raise CompilerRefusal(
                f"simulation compiler refused process '{name}': "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return factory, elab.unsettled

    process.build = build_or_refuse
    process.facts = facts
    return elab.design.add_process(process)
