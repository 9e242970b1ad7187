"""Correctness gates: each counts outputs that differ from a reference.

The counts add up to ``wrong_answers`` in the benchmark's record; a
run with any wrong answer reports ``"correct": false``.
"""

import os

#: rendered artefact -> the committed file under results/ it must equal
RENDERED_FILES = {
    "figure2": "figure2.txt",
    "figure3": "figure3.txt",
    "table1": "table1.txt",
    "table2": "table2.txt",
    "figure4": "figure4.txt",
    "table3": "table3_figure6.txt",
    "table4": "table4.txt",
    "table5": "table5.txt",
}


def rendered_wrong(texts, results_dir):
    """Artefacts of one pass not byte-identical to the committed ones.

    The committed files hold the rendered text plus a newline.  A
    missing artefact counts as wrong.
    """
    wrong = 0
    for name, filename in RENDERED_FILES.items():
        with open(os.path.join(results_dir, filename)) as handle:
            expected = handle.read()
        if name not in texts or texts[name] + "\n" != expected:
            wrong += 1
    return wrong


def oracle_wrong(pairs):
    """Programs whose compiled run disagrees with the interpreter.

    *pairs* maps a program to ``{"compiled": [ok, output],
    "interpreted": [ok, output]}``.
    """
    return sum(1 for pair in pairs.values()
               if pair["compiled"] != pair["interpreted"])


def checker_wrong(findings):
    """Programs the independent checker reported findings on.

    *findings* maps a program to its number of findings.
    """
    return sum(1 for count in findings.values() if count)


def serve_wrong(responses, references):
    """Successful responses not byte-identical to their reference.

    *responses* carry ``key`` (see :func:`passes.request_key`),
    ``status`` and ``result`` (the canonical JSON of the served result);
    *references* map a key to the canonical JSON of a single-shot
    ``compute_result``.  Non-200 responses are failures, not wrong
    answers.
    """
    return sum(1 for response in responses
               if response["status"] == 200
               and response["result"] != references.get(response["key"]))
