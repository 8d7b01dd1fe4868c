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
sensitivity lists, the sole-driver fence) and defers each process *body*
until the process first starts, inside :meth:`Simulator.run
<repro.sim.kernel.Simulator.run>`. A process replaced by a levelized cone,
a compile-only elaboration and the batch tier's compile step never build a
body at all. A body whose compilation raises is refused as a named run-time
error, counted in the ``sim.compile.refusals`` metric.

On top of the closures sits the *levelized* tier (:mod:`.level` +
:mod:`.twostate`): static combinational cones are topologically sorted at
elaboration and emitted as straight-line generated Python, with a two-state
masked-int fast path while no X/Z is live on the cone's inputs. Its escape
hatches:

* ``REPRO_SIM_NO_LEVEL=1`` disables cone formation (closures only);
* ``REPRO_SIM_NO_TWOSTATE=1`` keeps cones but forces their four-state
  closure bodies (for isolating the int fast path).

The batch tier (:mod:`repro.sim.batch` + :mod:`.vector`) re-lowers cone
emits across the stimulus axis — numpy ``uint64`` lanes when numpy is
importable, a masked-int list loop otherwise — and has two more hatches:

* ``REPRO_SIM_NO_BATCH=1`` disables batched stimulus evaluation entirely;
* ``REPRO_SIM_NO_NUMPY=1`` keeps batching but forces the pure-Python list
  fallback (the same path taken when numpy is not installed).
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


def level_disabled() -> bool:
    """True when ``REPRO_SIM_NO_LEVEL`` turns off the levelized cone tier."""
    return os.environ.get("REPRO_SIM_NO_LEVEL", "0") not in ("", "0")


def twostate_disabled() -> bool:
    """True when ``REPRO_SIM_NO_TWOSTATE`` forces four-state cone bodies."""
    return os.environ.get("REPRO_SIM_NO_TWOSTATE", "0") not in ("", "0")


def batch_disabled() -> bool:
    """True when ``REPRO_SIM_NO_BATCH`` turns off the batch stimulus tier."""
    return os.environ.get("REPRO_SIM_NO_BATCH", "0") not in ("", "0")


def numpy_disabled() -> bool:
    """True when ``REPRO_SIM_NO_NUMPY`` forces the list-mode batch fallback."""
    return os.environ.get("REPRO_SIM_NO_NUMPY", "0") not in ("", "0")
