"""Seeded workload inputs: the same seed always gives the same inputs.

Only the benchmark reads the seed; the program receives the generated
programs and requests.  See README.md for why each workload is shaped
the way it is.
"""

import random

#: worker processes of the suite passes
JOBS = 2

#: serve-mixed: the programs requests are drawn over.  Suite programs
#: whose cold ``evaluate`` costs about the same (0.6-0.9 s on a 2-CPU
#: x86 container), all of them in every run: with a seeded subset the
#: p99, memory and cache size measured which programs the seed drew
#: (30% run-to-run spread over five seeds).  ``tak`` (a 4.6 s query)
#: and ``prover`` (a 1.8 s cold evaluate) are measured by ``suite``.
SERVE_PROGRAMS = ("divide10", "log10", "mu", "qsort", "queens_8")
SERVE_OPS = ("compile", "evaluate", "verify", "analyze", "query")
#: requests in one pass; a run makes passes while --seconds lasts
SERVE_REQUESTS = 200
#: share of never-seen keys, half cold evaluates and half cold queries
SERVE_COLD_SHARE = 0.05
SERVE_CLIENTS = 2
#: the query limit a warm request uses; a cold query's limit differs
DEFAULT_LIMIT = 64
#: tail-duplication budgets of the cold evaluates, taken in order per
#: program.  Budgets collapse into classes that transform a program
#: identically (for ``qsort``, 39-49 and 63-127 are two classes; 8-15
#: are one budget each), and a budget in a known class re-uses compiled
#: code.  Seeded budgets from 8-127 made the seed decide how much the
#: cold keys compiled, so the budgets are fixed and small; the seed
#: moves the cold keys and draws the query limits.
COLD_BUDGETS = tuple(range(8, 38))


def serve_plan(seed):
    """The serve-mixed inputs: warm templates and the request sequence.

    Requests are drawn by seed over :data:`SERVE_PROGRAMS`.  Every warm
    template is computed into the cache during set-up and appears
    equally often.  A fixed share of the sequence are never-seen keys:
    ``evaluate`` with a fresh ``tail_dup_budget`` or ``query`` with a fresh ``limit`` at
    ``or_jobs=2``, alternating.
    """
    rng = random.Random("serve:%d" % seed)
    programs = list(SERVE_PROGRAMS)
    warm = [{"op": op, "body": {"benchmark": program}}
            for program in programs for op in SERVE_OPS]
    count = SERVE_REQUESTS
    cold_count = max(2, round(count * SERVE_COLD_SHARE))
    cold_positions = sorted(rng.sample(range(count), cold_count))
    limits = {program: {DEFAULT_LIMIT} for program in programs}
    cold = {}
    for number, position in enumerate(cold_positions):
        # cold keys take turns over the programs and the two ops, so
        # the seed moves them but does not change their cost mix
        turn, op = divmod(number, 2)
        program = programs[turn % len(programs)]
        if op == 0:
            budget = COLD_BUDGETS[turn // len(programs)]
            cold[position] = {"op": "evaluate", "body": {
                "benchmark": program, "tail_dup_budget": budget}}
        else:
            limit = rng.choice([limit for limit in range(1, 10001)
                                if limit not in limits[program]])
            limits[program].add(limit)
            cold[position] = {"op": "query", "body": {
                "benchmark": program, "limit": limit, "or_jobs": 2}}
    # every warm template equally often (give or take one), in seeded
    # order: a free draw moved the op mix, and with it p50, by seed
    warm_count = count - cold_count
    mix = warm * (warm_count // len(warm)) \
        + rng.sample(warm, warm_count % len(warm))
    rng.shuffle(mix)
    mix = iter(mix)
    sequence = [cold[index] if index in cold else next(mix)
                for index in range(count)]
    return {"programs": programs, "warm": warm, "sequence": sequence,
            "cold": [cold[position] for position in cold_positions]}
