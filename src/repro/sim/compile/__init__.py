"""Compile-at-elaboration simulation: HDL ASTs → Python closures.

:mod:`.verilog` and :mod:`.vhdl` are the simulator's evaluators. Each lowers
elaborated expressions and statement bodies into plain Python closures
*once*, at elaboration time: identifier lookups, context widths, operator
dispatch, and constant select bounds are all resolved statically, so each
kernel activation runs straight-line closure calls instead of a tree walk.
Both compilers are total: every construct compiles, and a construct that is
in error when evaluated compiles to a closure that reports the diagnostic
and aborts with its text when called. Compiling is silent; a process whose
compilation raises is refused as a named elaboration error, counted in the
``sim.compile.refusals`` metric.

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


def add_process(elab, name, node, build):
    """Compile a process with *build* and add it to ``elab.design``.

    Returns the :class:`Process`, or None when the builder raised. The
    compilers are total, so that is a compiler defect: it is refused
    loudly, as a named elaboration error on *node* counted in
    ``sim.compile.refusals``, and the process is left out. An elaboration
    abort (its diagnostic already reported) propagates unchanged.
    """
    try:
        factory = build()
    except SimulationError:
        raise
    except Exception as exc:
        get_tracer().metrics.counter("sim.compile.refusals").inc()
        elab._error(
            node.span,
            f"simulation compiler refused process '{name}': "
            f"{type(exc).__name__}: {exc}",
        )
        return None
    process = Process(name, factory)
    elab.design.add_process(process)
    return process


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
