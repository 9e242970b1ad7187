"""Quickstart: compile Prolog, run it, measure ILP speedup.

Run:  python examples/quickstart.py
"""

import repro
from repro.experiments.data import master_configs

SOURCE = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).

nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).

main :- nrev([1,2,3,4,5,6,7,8,9,10], R), write(R), nl.
"""


def main():
    # 1. Compile Prolog to the RISC-level Intermediate Code (ICI).
    program = repro.compile_prolog(SOURCE)
    print("compiled to %d ICI operations" % len(program))

    # 2. Execute on the sequential emulator.
    result = repro.emulate(program)
    print("executed %d operations, output: %s"
          % (result.steps, result.output.strip()))
    assert result.succeeded

    # 3. How much instruction-level parallelism can the back-end extract?
    configs = master_configs()
    for key in ("bam", "vliw1", "vliw3", "tr_ideal"):
        config, regioning = configs[key]
        speedup = repro.measure_speedup(program, config,
                                        regioning=regioning)
        print("%-8s machine: %.2fx over sequential" % (key, speedup))

    # The shared-memory Amdahl bound (paper section 4.2):
    from repro.analysis.amdahl import memory_bound_speedup
    from repro.intcode.ici import OP_CLASS, MEM
    mem_ops = sum(count for pc, count in enumerate(result.counts)
                  if count and OP_CLASS[program.instructions[pc].op] == MEM)
    fraction = mem_ops / result.steps
    print("memory fraction %.2f -> Amdahl ceiling %.2fx"
          % (fraction, memory_bound_speedup(fraction)))


if __name__ == "__main__":
    main()
