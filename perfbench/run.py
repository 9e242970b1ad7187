r"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 40 \
        --trace 0

Run from the repository root.  Every timed pass runs in a fresh
interpreter (``passes.py``) on a private cache directory under
``.perfbench/``.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` the
same work runs in-process, stage by stage, and the object holds the
per-layer metrics.  A full record with provenance is written to
``.perfbench/records/``.  README.md gives the workloads' reasons and
which per-layer metric should move which end-to-end metric.
"""

import argparse
import concurrent.futures
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))

#: Each metric is the median, mean or a percentile of samples spread
#: over the whole run.  On a 2-CPU x86 container shared with other
#: tenants each CPU switches on its own between a fast and a slow
#: state, a third apart, every few seconds: samples taken in one
#: stretch of a few seconds, or on one CPU at a time, measured the
#: state they fell in.  ``warm_s`` is a mean, as its samples fall into
#: the two states and a median jumps between them.
#:
#: suite: a run's passes, in order.  Two cold passes, each from an
#: empty cache of its own, and three stretches of warm steps, kept
#: apart by the untimed check pass and the second cold pass.
SUITE_LAYOUT = ("setup", "cold", "warm", "warm", "check", "setup",
                "warm", "warm", "cold", "warm", "warm", "setup")
#: suite: passes a warm step runs at once, one per CPU, so that they
#: sample both CPUs' states, as the cold pass's two pool workers do
WARM_AT_ONCE = 2
#: serve-mixed: a run repeats a cycle (a set-up, then a mixed pass and
#: its replays) while ``--seconds`` lasts, and at least this many times
MIN_CYCLES = 2
#: serve-mixed: all-warm replays of the sequence after each mixed pass
SERVE_REPLAYS = 3
#: a run must end within this many seconds
RUN_LIMIT = 170.0
#: environment variables that would change what is measured
CLEARED_ENV = ("REPRO_FAULT_INJECT", "REPRO_FAULT_STATE",
               "REPRO_EMULATOR_BACKEND", "REPRO_JOBS",
               "REPRO_CACHE_SHARDS", "REPRO_CACHE_DIR",
               "REPRO_TRACE_SEED", "REPRO_TRACE_DETERMINISTIC")


def metric_units(root):
    """``(end_to_end, per_layer)``: metric name -> unit, as
    ``BENCHMARK.json`` at the repository root fixes them."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return tuple({metric["name"]: metric["unit"] for metric in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


class PassFailed(RuntimeError):
    """A pass's interpreter exited with an error or ran out of time."""


class Bench:
    """Runs passes in fresh interpreters inside one work directory."""

    def __init__(self, root, workload, seed, seconds):
        self.root = root
        self.workload = workload
        self.seconds = seconds
        self.seed = seed
        self.started = time.monotonic()
        self.work = os.path.join(root, ".perfbench", "%s-%d-%d" % (
            workload, seed, os.getpid()))
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.numbers = itertools.count(1)
        env = {key: value for key, value in os.environ.items()
               if key not in CLEARED_ENV}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), HERE])
        self.env = env

    def path(self, name):
        return os.path.join(self.work, name)

    def spans(self, suffix="0"):
        """Where a traced pass writes its spans (kept after the run)."""
        directory = os.path.join(self.root, ".perfbench", "spans")
        os.makedirs(directory, exist_ok=True)
        return os.path.join(directory, "%s-seed%d-%s.jsonl" % (
            self.workload, self.seed, suffix))

    def run(self, name, spec, cache):
        """Run pass *name*; returns ``(result, seconds)`` where seconds
        is the interpreter's wall time from start to exit."""
        number = next(self.numbers)
        spec_path = self.path("%03d-%s.spec.json" % (number, name))
        out_path = self.path("%03d-%s.out.json" % (number, name))
        log_path = self.path("%03d-%s.log" % (number, name))
        with open(spec_path, "w") as handle:
            json.dump(dict(spec, **{"pass": name}), handle)
        env = dict(self.env, REPRO_CACHE_DIR=cache)
        remaining = RUN_LIMIT - (time.monotonic() - self.started)
        if remaining <= 1.0:
            raise PassFailed("%s: no time left in the run" % name)
        with open(log_path, "w") as log:
            started = time.perf_counter()
            process = subprocess.Popen(
                [sys.executable, "-c",
                 "import sys, passes; sys.exit(passes.main(sys.argv[1:]))",
                 spec_path, out_path],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            # wait() with a timeout polls in steps of up to 50 ms, which
            # would quantise the measured time; a timer kills instead.
            timer = threading.Timer(remaining, _kill_group, [process])
            timer.start()
            try:
                code = process.wait()
            finally:
                timer.cancel()
            seconds = time.perf_counter() - started
            _stop_group(process)
        if code != 0:
            with open(log_path) as handle:
                tail = handle.read()[-2000:]
            raise PassFailed("%s: exit %d%s\n%s" % (
                name, code, " (killed at the run's time limit)"
                if code == -signal.SIGKILL else "", tail))
        with open(out_path) as handle:
            return json.load(handle), seconds

    def run_together(self, count, name, spec, cache):
        """Run *count* copies of pass *name* at once, each from a thread
        of its own; returns their results."""
        with concurrent.futures.ThreadPoolExecutor(count) as pool:
            runs = [pool.submit(self.run, name, spec, cache)
                    for _ in range(count)]
            return [run.result()[0] for run in runs]

    def cycles(self, cycle):
        """Call ``cycle(number)`` for number 0, 1, ...: at least
        :data:`MIN_CYCLES` times, then while one more cycle as long as
        the longest so far fits in ``--seconds``."""
        started = time.monotonic()
        longest = 0.0
        number = 0
        while True:
            begun = time.monotonic()
            cycle(number)
            number += 1
            now = time.monotonic()
            longest = max(longest, now - begun)
            if number >= MIN_CYCLES \
                    and now - started + longest > self.seconds:
                return number

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _kill_group(process):
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _stop_group(process):
    """Kill what is left of the pass's process group and wait for it."""
    _kill_group(process)
    process.wait()
    deadline = time.monotonic() + 10.0
    while _group_alive(process.pid) and time.monotonic() < deadline:
        time.sleep(0.05)


def _group_alive(pgid):
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def percentile(values, fraction):
    """Linear-interpolated percentile of *values* (0 < fraction < 1)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# --------------------------------------------------------------------------
# The workloads.  Each returns an outcome: the metrics, how many
# operations were attempted and failed, the wrong answers, the input
# sizes and, for a traced run, whether the layer times reconcile.

def outcome(metrics, attempted, failed, wrong, sizes, reconciled=None):
    result = {"metrics": metrics, "attempted": attempted, "failed": failed,
              "wrong_answers": wrong, "inputs": sizes}
    if reconciled is not None:
        result["reconciled"] = reconciled
    return result


def _failed(passes):
    """Engine tasks of the passes that failed for good."""
    return sum(result["engine"]["failed"] for result in passes)


def _rendered_wrong(passes, results_dir):
    """Wrong artefacts over the passes that rendered (a pass whose
    cells failed renders nothing and counts as failed instead)."""
    return sum(checks.rendered_wrong(result["texts"], results_dir)
               for result in passes if result["texts"] is not None)


def _outputs(result):
    return [result.get(key) for key in ("texts", "pairs", "findings")]


def _checked_wrong(check):
    return checks.oracle_wrong(check["pairs"]) \
        + checks.checker_wrong(check["findings"] or {})


def suite(bench, trace):
    results_dir = os.path.join(bench.root, "results")
    if trace:
        return _suite_traced(bench, results_dir)
    spec = {"jobs": inputs.JOBS}
    setups, colds, warms = [], [], []
    for step in SUITE_LAYOUT:
        if step == "setup":
            setups.append(bench.run("setup-suite", spec,
                                    bench.path("setup-cache"))[1])
        elif step == "check":
            check, _ = bench.run("suite-check", {}, cache)
        else:
            if step == "cold":
                cache = bench.path("suite-cache-%d" % len(colds))
            if step == "cold":
                colds.append(bench.run("suite", spec, cache)[0])
            else:
                warms.extend(bench.run_together(WARM_AT_ONCE, "suite",
                                                spec, cache))
    passes = colds + warms
    wrong = _rendered_wrong(passes, results_dir) + _checked_wrong(check)
    computed = colds[0]["engine"]["tasks"] - colds[0]["engine"]["cached"]
    walls = [result["wall"] for result in passes]
    cold_s = statistics.median(result["wall"] for result in colds)
    metrics = {
        "setup_s": statistics.median(setups),
        "cold_s": cold_s,
        "warm_s": statistics.mean(result["wall"] for result in warms),
        "latency_p50_ms": 1000 * percentile(walls, 0.50),
        "latency_p99_ms": 1000 * percentile(walls, 0.99),
        "requests_per_s": computed / cold_s,
        "peak_rss_mb": statistics.median(result["peak_rss_mb"]
                                         for result in colds),
        "cache_mb": statistics.median(result["cache_mb"]
                                      for result in colds),
    }
    sizes = {"programs": len(check["pairs"]), "layout": SUITE_LAYOUT,
             "cold_tasks": computed,
             "cold_walls": [result["wall"] for result in colds],
             "warm_walls": [result["wall"] for result in warms]}
    tasks = sum(result["engine"]["tasks"] for result in passes)
    return outcome(metrics, tasks + len(check["pairs"]), _failed(passes),
                   wrong, sizes)


def _suite_traced(bench, results_dir):
    """A cold pass, a warm pass and the check, each untraced then
    traced on caches of their own: interleaved, so host speed drift
    splits evenly between the two."""
    untraced, traced = [], []
    for number, name in enumerate(("suite", "suite", "suite-check")):
        spec = {"jobs": 1} if name == "suite" else {"checker": True}
        untraced.append(bench.run(name, spec,
                                  bench.path("untraced-cache"))[0])
        traced.append(bench.run(
            name, dict(spec, trace=True,
                       spans=bench.spans("%d" % number)),
            bench.path("traced-cache"))[0])
    passes = untraced + traced
    wrong = _rendered_wrong(untraced[:2] + traced[:2], results_dir) \
        + _checked_wrong(untraced[2]) + _checked_wrong(traced[2]) \
        + sum(_outputs(result) != _outputs(reference)
              for result, reference in zip(traced, untraced))
    metrics, reconciled = layer_metrics(_walls(untraced), _walls(traced),
                                        traced)
    tasks = sum(result["engine"]["tasks"] for result in passes)
    return outcome(metrics, tasks + len(passes), _failed(passes), wrong,
                   {"passes": ["cold", "warm", "check"]}, reconciled)


def serve_mixed(bench, trace):
    plan = inputs.serve_plan(bench.seed)
    template = bench.path("serve-template")
    warm_refs, _ = bench.run(
        "serve-reference", {"templates": plan["warm"], "fill": True},
        template)
    cold_cache = bench.path("serve-cold-refs")
    shutil.copytree(template, cold_cache)
    cold_refs, _ = bench.run("serve-reference",
                             {"templates": plan["cold"]}, cold_cache)
    references = dict(warm_refs["references"], **cold_refs["references"])
    spec = {"sequence": plan["sequence"], "clients": inputs.SERVE_CLIENTS,
            "replays": SERVE_REPLAYS, "work": bench.work}

    def one_pass(number, extra):
        # every pass starts from the same cache state, so the cold keys
        # are cold in each
        cache = bench.path("serve-pass-%d" % number)
        shutil.copytree(template, cache)
        result = bench.run("serve-mixed", dict(spec, **extra), cache)[0]
        shutil.rmtree(cache)
        return result

    setups, passes = [], []
    if trace:
        passes = [one_pass(0, {}), one_pass(1, {
            "trace": True, "spans": bench.spans()})]
    else:
        def cycle(number):
            setups.append(bench.run("setup-serve-mixed", {}, template)[1])
            passes.append(one_pass(number, {}))

        bench.cycles(cycle)
    responses = [response for run in passes
                 for response in run["mixed"] + run["warm"]]
    wrong = checks.serve_wrong(responses, references)
    failed = sum(1 for response in responses if response["status"] != 200)
    sizes = {"programs": plan["programs"],
             "requests": len(plan["sequence"]),
             "cold_requests": len(plan["cold"]),
             "cold_share": len(plan["cold"]) / len(plan["sequence"]),
             "clients": inputs.SERVE_CLIENTS, "passes": len(passes)}
    if trace:
        untraced, traced = passes
        metrics, reconciled = layer_metrics(
            untraced["wall"] + sum(untraced["warm_walls"]),
            traced["wall"] + sum(traced["warm_walls"]), [traced])
        metrics.update(_serve_layers(untraced, cold_refs))
        return outcome(metrics, len(responses), failed, wrong, sizes,
                       reconciled)
    # A failed request missed every limit: it reads as its whole pass.
    latencies = [response["latency"] if response["status"] == 200
                 else run["wall"]
                 for run in passes for response in run["mixed"]]
    cold_s = statistics.median(run["wall"] for run in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "cold_s": cold_s,
        "warm_s": statistics.mean(wall for run in passes
                                  for wall in run["warm_walls"]),
        "latency_p50_ms": 1000 * percentile(latencies, 0.50),
        "latency_p99_ms": 1000 * percentile(latencies, 0.99),
        "requests_per_s": len(plan["sequence"]) / cold_s,
        "peak_rss_mb": statistics.median(run["peak_rss_mb"]
                                         for run in passes),
        "cache_mb": statistics.median(run["cache_mb"] for run in passes),
    }
    return outcome(metrics, len(responses), failed, wrong, sizes)


def _walls(results):
    return sum(result["wall"] for result in results)


def _serve_layers(result, cold_refs):
    counters = result["counters"]
    hits = counters.get("serve.cache_hits", 0)
    computed = counters.get("serve.computed", 0)
    mixed = [response for response in result["mixed"]
             if response["status"] == 200]
    hit_latencies = [response["latency"] for response in mixed
                     if response["cached"]]
    cold_seconds = cold_refs["seconds"]
    cold = [response["latency"] for response in mixed
            if response["key"] in cold_seconds]
    return {
        "serve.hit_p50_ms": 1000 * percentile(hit_latencies, 0.5)
        if hit_latencies else 0.0,
        "serve.compute_s": sum(cold_seconds.values()),
        "serve.overhead_ms": 1000 * (
            statistics.mean(cold) - statistics.mean(cold_seconds.values()))
        if cold else 0.0,
        "serve.hit_ratio": hits / (hits + computed)
        if hits + computed else 0.0,
        "serve.batches": counters.get("serve.batches", 0),
    }


def layer_metrics(untraced_wall, traced_wall, traced):
    """Per-layer metrics of the *traced* pass results, and whether the
    stages' self times reconcile with the untraced wall time (see
    :func:`spans.reconciles`).

    The walls are those of the same passes without and with tracing.
    ``engine.unattributed_s`` is the untraced wall time minus every
    stage's traced self time.
    """
    layers = {}
    counts = {}
    engine = {"tasks": 0, "cached": 0, "retries": 0, "failed": 0}
    programs = 0
    for result in traced:
        summary = result["trace"]
        for layer, seconds in summary["layers"].items():
            layers[layer] = layers.get(layer, 0.0) + seconds
        for name, value in summary["counts"].items():
            if name == "programs":
                programs = max(programs, value)
            else:
                counts[name] = counts.get(name, 0) + value
        for name in engine:
            engine[name] += result["engine"][name]

    def layer(name):
        return layers.get(name, 0.0)

    def count(name):
        return counts.get(name, 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    codegen_lookups = count("codegen.cache.hits") \
        + count("codegen.cache.misses")
    metrics = {
        "reader.parse_s": layer("reader.parse"),
        "bam.compile_s": layer("bam.compile"),
        "intcode.translate_s": layer("intcode.translate"),
        "intcode.icis": count("translate.icis"),
        "intcode.compiles_per_program": ratio(count("translate.calls"),
                                              programs),
        "emulator.codegen_s": layer("emulator.codegen"),
        "emulator.codegen_source_mb": count("codegen.source_bytes") / 1e6,
        "emulator.run_s": layer("emulator.run"),
        "emulator.runs": count("emulator.runs"),
        "emulator.steps": count("emulator.steps"),
        "emulator.icis_per_s": ratio(count("emulator.steps"),
                                     layer("emulator.run")),
        "emulator.fallback_ratio": ratio(count("emulator.fallbacks"),
                                         count("emulator.runs")),
        "emulator.artefact_hit_ratio": ratio(count("codegen.cache.hits"),
                                             codegen_lookups),
        "compaction.superblock_s": layer("compaction.superblock"),
        "compaction.mean_region_len": ratio(count("superblock.ops"),
                                            count("superblock.regions")),
        "compaction.schedule_s": layer("compaction.schedule"),
        "compaction.ops_per_s": ratio(count("schedule.ops"),
                                      layer("compaction.schedule")),
        "simulator.replay_s": layer("simulator.replay"),
        "verify.check_s": layer("verify.check"),
        "verify.findings": count("verify.findings"),
        "cache.get_s": layer("cache.get"),
        "cache.put_s": layer("cache.put"),
        "cache.hit_ratio": ratio(count("cache.hits"), count("cache.gets")),
        "cache.bytes_written_mb": count("cache.bytes_written") / 1e6,
        "engine.tasks": engine["tasks"],
        "engine.cached_ratio": ratio(engine["cached"], engine["tasks"]),
        "engine.retries": engine["retries"],
        "engine.failed": engine["failed"],
        "engine.unattributed_s": spans.unattributed(untraced_wall, layers),
        "interp.oracle_s": layer("interp.oracle"),
        "interp.orparallel_s": layer("interp.orparallel"),
        "interp.split_ratio": ratio(count("orparallel.splits"),
                                    count("orparallel.queries")),
        "serve.hit_p50_ms": 0.0,
        "serve.compute_s": 0.0,
        "serve.overhead_ms": 0.0,
        "serve.hit_ratio": 0.0,
        "serve.batches": 0,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return metrics, spans.reconciles(untraced_wall, layers)


WORKLOADS = {
    "suite": suite,
    "serve-mixed": serve_mixed,
}


# --------------------------------------------------------------------------
# Provenance and the command line.

def host_probe():
    """Seconds a fixed pure-Python loop takes: a yardstick of the host's
    speed at that moment.  Taken at the start and the end of a run, it
    tells a spread between runs that the host's speed caused (a 2-CPU
    x86 container shared with other tenants ran the same loop a third
    slower for minutes at a time) from one the benchmark caused."""
    started = time.perf_counter()
    total = 0
    for number in range(2_000_000):
        total += number % 7
    return time.perf_counter() - started


def provenance(bench, root):
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    digest = hashlib.sha256()
    source = os.path.join(root, "src", "repro")
    for directory, dirs, files in sorted(os.walk(source)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    backend, _ = bench.run("warmup", {}, bench.path("setup-cache"))
    return {"host_probe_s": [host_probe()],
            "git_revision": revision,
            "source_digest": digest.hexdigest()[:16],
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)),
            "emulator_backend": backend["backend"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")) \
            or not os.path.isdir(os.path.join(root, "results")):
        print("perfbench: run from the repository root (needs src/repro "
              "and results/)", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.seconds)
    try:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "provenance": provenance(bench, root)}
        result = WORKLOADS[args.workload](bench, bool(args.trace))
    except PassFailed as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    finally:
        bench.close()
    record["provenance"]["host_probe_s"].append(host_probe())
    units = metric_units(root)[args.trace]
    metrics = result["metrics"]
    wrong, failed = result["wrong_answers"], result["failed"]
    failed_frac = failed / result["attempted"]
    correct = wrong == 0 and failed == 0 and result.get("reconciled", True)
    record.update(result, failed_frac=failed_frac, correct=correct)
    records = os.path.join(root, ".perfbench", "records")
    os.makedirs(records, exist_ok=True)
    with open(os.path.join(records, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    for name in units:
        print("%-30s %14.6g %s" % (name, metrics[name], units[name]),
              file=sys.stderr)
    print("%-30s %14d\n%-30s %14.6g" % ("wrong_answers", wrong,
                                        "failed_frac", failed_frac),
          file=sys.stderr)
    if "reconciled" in result:
        print("%-30s %14s" % ("reconciled", result["reconciled"]),
              file=sys.stderr)
    print("%-30s %s s" % ("host_probe_s (start, end)", " ".join(
        "%.3f" % seconds
        for seconds in record["provenance"]["host_probe_s"])),
        file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
