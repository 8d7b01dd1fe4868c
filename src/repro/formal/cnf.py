"""CNF formula construction with constant-folding gate helpers.

The bit-blaster (:mod:`repro.formal.encode`) builds circuits out of the gate
helpers below, which perform Tseitin encoding with aggressive constant
folding: variable 1 is reserved as the constant ``TRUE`` (pinned by a unit
clause), ``-1`` is ``FALSE``, and every gate helper simplifies when an input
is a constant or when both inputs coincide. Folding is what keeps the
dual-rail X encoding nearly free in the common all-known case — the known
rails collapse to ``TRUE`` at build time and never reach the SAT solver.

Gates are hash-consed per :class:`Cnf` instance (one fresh variable per
structurally distinct gate), so shared subcircuits — ubiquitous in miters,
where golden and candidate sides reference the same inputs — are encoded
once. Variable numbering is therefore a pure function of the sequence of
helper calls, which is what makes SAT models (and hence counterexample
witnesses) deterministic across runs and worker processes.
"""

from __future__ import annotations

#: the reserved constant-true literal (variable 1, pinned by a unit clause)
TRUE = 1
#: the reserved constant-false literal
FALSE = -1


class Cnf:
    """A growing CNF formula over integer literals (DIMACS convention)."""

    def __init__(self) -> None:
        self.num_vars = 1
        self.clauses: list[tuple[int, ...]] = [(TRUE,)]
        self._gates: dict[tuple, int] = {}

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add(self, *literals: int) -> None:
        self.clauses.append(tuple(literals))

    # -- folding gate helpers -----------------------------------------------

    def g_and(self, a: int, b: int) -> int:
        if a == FALSE or b == FALSE or a == -b:
            return FALSE
        if a == TRUE or a == b:
            return b if a == TRUE else a
        if b == TRUE:
            return a
        key = ("and",) + tuple(sorted((a, b)))
        cached = self._gates.get(key)
        if cached is not None:
            return cached
        out = self.new_var()
        self.add(-out, a)
        self.add(-out, b)
        self.add(out, -a, -b)
        self._gates[key] = out
        return out

    def g_or(self, a: int, b: int) -> int:
        return -self.g_and(-a, -b)

    def g_xor(self, a: int, b: int) -> int:
        if a == TRUE:
            return -b
        if a == FALSE:
            return b
        if b == TRUE:
            return -a
        if b == FALSE:
            return a
        if a == b:
            return FALSE
        if a == -b:
            return TRUE
        # normalize polarity so xor(a,b), xor(-a,-b) share one gate
        negate = False
        if a < 0:
            a, negate = -a, not negate
        if b < 0:
            b, negate = -b, not negate
        key = ("xor",) + tuple(sorted((a, b)))
        cached = self._gates.get(key)
        if cached is None:
            cached = self.new_var()
            self.add(-cached, a, b)
            self.add(-cached, -a, -b)
            self.add(cached, -a, b)
            self.add(cached, a, -b)
            self._gates[key] = cached
        return -cached if negate else cached

    def g_mux(self, sel: int, if_true: int, if_false: int) -> int:
        """``if_true`` when ``sel`` holds, else ``if_false``."""
        if sel == TRUE:
            return if_true
        if sel == FALSE:
            return if_false
        if if_true == if_false:
            return if_true
        return self.g_or(
            self.g_and(sel, if_true), self.g_and(-sel, if_false)
        )

    def g_and_many(self, literals: list[int]) -> int:
        out = TRUE
        for literal in literals:
            out = self.g_and(out, literal)
        return out

    def g_or_many(self, literals: list[int]) -> int:
        out = FALSE
        for literal in literals:
            out = self.g_or(out, literal)
        return out
