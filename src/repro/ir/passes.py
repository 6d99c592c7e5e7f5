"""Pass manager for IR transformations.

Lancet is implemented as two optimization passes registered with the
compiler's pass manager (paper Sec. 6: "users only need to enable them in
RAF's optimization pass manager").  This module provides that harness: a
:class:`Pass` protocol, a :class:`PassManager` that runs passes in order,
validates the final IR once, and records per-pass wall time (which
feeds the paper's Fig. 15 optimization-time measurement).

Validating once, at the end, still catches every invariant break in the
final program (:func:`~.validate.validate` checks SSA order and
re-infers every output type).  A break in an intermediate program
surfaces there or as an error in the next pass, and the error no longer
names the pass that made it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .program import Program
from .validate import validate


class Pass:
    """Base class for IR passes.  Subclasses override :meth:`run`."""

    #: Human-readable pass name (defaults to class name).
    name: str = ""

    def run(self, program: Program) -> Program:
        """Transform and return the program (may mutate in place)."""
        raise NotImplementedError

    def __init_subclass__(cls, **kw) -> None:
        super().__init_subclass__(**kw)
        if not cls.name:
            cls.name = cls.__name__


@dataclass
class PassTiming:
    """Wall-clock record of one pass execution."""

    name: str
    seconds: float


@dataclass
class PassManager:
    """Runs a list of passes over a program, then validates it once.

    Attributes
    ----------
    passes:
        Passes to run, in order.
    validate_each:
        If True (default), run the IR validator on the final program,
        once, after the last pass.
    timings:
        Filled by :meth:`run`; one entry per executed pass.
    """

    passes: list[Pass] = field(default_factory=list)
    validate_each: bool = True
    timings: list[PassTiming] = field(default_factory=list)

    def add(self, p: Pass) -> "PassManager":
        """Append a pass; returns self for chaining."""
        self.passes.append(p)
        return self

    def run(self, program: Program) -> Program:
        """Run all passes in order and return the final program."""
        self.timings = []
        for p in self.passes:
            t0 = time.perf_counter()
            program = p.run(program)
            self.timings.append(PassTiming(p.name, time.perf_counter() - t0))
        if self.validate_each and self.passes:
            validate(program)
        return program
