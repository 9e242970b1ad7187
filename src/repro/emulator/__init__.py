"""Sequential ICI emulator and dynamic statistics.

Two loops share one contract (bit-identical
:class:`~repro.emulator.machine.EmulationResult` data):

* ``reference`` — the plain interpreter loop in
  :mod:`repro.emulator.machine`;
* ``codegen`` — :class:`~repro.emulator.codegen.CodegenEmulator`, the
  whole program emitted as one Python function with registers as
  locals, several times faster than the reference loop once its
  compile is paid for.  It falls back to the reference loop whenever
  it cannot produce a result exactly.

:func:`run_program` has one route: it runs the reference loop first
and compiles only runs that outlive a step budget.
``EmulationResult.backend`` names the loop that produced a result.
There is no third, single-step machine: after ``run()`` each loop
keeps the data memory as the run left it in its ``memory``
attribute, which is how the opcode tests probe both loops.
"""

from repro.emulator.machine import (
    BACKENDS,
    Emulator,
    EmulationResult,
    EmulatorError,
    resolve_backend,
    run_program,
    render_term,
    decode,
)
from repro.emulator.codegen import CodegenEmulator, codegen_code

__all__ = [
    "BACKENDS",
    "Emulator",
    "EmulationResult",
    "EmulatorError",
    "CodegenEmulator",
    "codegen_code",
    "resolve_backend",
    "run_program",
    "render_term",
    "decode",
]
