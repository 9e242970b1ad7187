"""Sequential ICI emulator and dynamic statistics.

Two backends share one contract (bit-identical
:class:`~repro.emulator.machine.EmulationResult` data):

* ``codegen`` — the compiled-function backend in
  :mod:`repro.emulator.codegen` (the default; the whole program emitted
  as one Python function with registers as locals, several times
  faster than the reference loop once its compile is paid for);
* ``reference`` — the plain interpreter loop in
  :mod:`repro.emulator.machine`, which codegen falls back to whenever
  it cannot produce a result exactly.

:func:`run_program` selects between them (``backend=`` argument or the
``REPRO_EMULATOR_BACKEND`` environment variable).  Its ``codegen``
route compiles only runs that outlive a step budget on the reference
loop; shorter runs report ``reference``.
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
from repro.emulator.debug import DebugMachine

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
    "DebugMachine",
]
