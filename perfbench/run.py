"""Benchmark of the conndim library and CLI, end to end and per layer.

Run from the root of a conndim checkout:

    python3 perfbench/run.py --workload corpus6 --seed 1 --seconds 15 --trace 0

The checkout's extension build runs first (`setup.py build_ext --inplace`,
a no-op when Cython is missing), then the workload's inputs are made from
the seed and `conndim` is imported from ./src.

--trace 0 times the operations, one call at a time, for --seconds of busy
time; between calls it times set-up and the workload's CLI round in fresh
processes, and it prints the end-to-end metrics named in BENCHMARK.json,
every time rescaled to one machine speed by a reference task (speed.py).
--trace 1 runs each item of a fixed prefix of the same inputs plain and
with spans around every layer (see tracer.py), and prints the per-layer
metrics; the fixed prefix makes every count repeat exactly.  Every answer
is checked against oracles.py, off the clock.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; details
go to .bench_build/perfbench/.  See README.md for the why of each choice.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from array import array
from collections import Counter
from itertools import combinations
from math import ceil
from pathlib import Path
from time import perf_counter

from speed import Speed
from tracer import TARGETS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_build" / "perfbench"
PROBES = 11            # fresh processes timed for setup_s and cli.startup_s
CHILD_TIMEOUT = 120.0  # seconds before a CLI child is killed
REF_EVERY = 0.05       # seconds of calls between two reference samples
# a check's outcome, by code; code 0 marks an input not answered yet
OUTCOME = (None, "ok", "inconclusive", "unverified", "wrong")
CHANGED = len(OUTCOME)  # two answers on one input had different outcomes
# The installed `conndim` script, plus a report of the process's own peak
# memory on stderr.  VmHWM belongs to the address space made at exec, while
# ru_maxrss also counts the parent's pages inherited across the spawn.
CLI_MAIN = """import sys
from conndim.cli import main
code = main()
with open("/proc/self/status", encoding="ascii") as fh:
    sys.stderr.write(next(ln for ln in fh if ln.startswith("VmHWM:")))
sys.exit(code)
"""


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# --------------------------------------------------------------------------
# build, environment and fresh processes
# --------------------------------------------------------------------------

def build() -> float:
    """Build the checkout's extension in place; returns the seconds taken."""
    if not (ROOT / "setup.py").is_file():
        return 0.0
    t0 = perf_counter()
    with open(OUT / "build.log", "wb") as log:
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace",
             "--build-temp", str(ROOT / ".bench_build" / "build")],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, timeout=800)
    if proc.returncode:
        raise BenchError(f"extension build failed; see {OUT / 'build.log'}")
    return perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def environment(cd) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            sha = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".pyx", ".c") and path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "kernel": cd.active_kernel(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu}


def peak_mb(status_text: str) -> float:
    """VmHWM (peak resident memory) from /proc/<pid>/status text, in MB."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def own_peak_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        return peak_mb(fh.read())


def run_fresh(argv, stdin_text: str, env: dict):
    """Run one fresh process; returns (wall s, exit code, stdout, stderr)."""
    stdin_path, stdout_path = OUT / "cli.stdin", OUT / "cli.stdout"
    stdin_path.write_text(stdin_text, encoding="ascii")
    with open(stdin_path, "rb") as fin, open(stdout_path, "w+b") as fout, \
            open(OUT / "cli.stderr", "w+b") as ferr:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr,
                                cwd=ROOT, env=env)
        # a blocking wait: Popen.wait(timeout) polls and would quantize times
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        fout.seek(0)
        ferr.seek(0)
        return wall, proc.returncode, fout.read(), ferr.read()


def startup_probes(env: dict, count: int) -> list[float]:
    """Wall times of `count` fresh `import conndim.cli` processes, after one
    more that may compile bytecode and is not counted."""
    argv = [sys.executable, "-c", "import conndim.cli"]
    return [run_fresh(argv, "", env)[0] for _ in range(count + 1)][1:]


def setup_probe(args) -> float:
    """Set-up time (import conndim, make the inputs) in a fresh process."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode:
        raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def tail_rank(n: int, p: float) -> int:
    """Nearest-rank position (1-based) of percentile p among n samples."""
    return max(1, ceil(n * p / 100))


def min_ops(p: float) -> int:
    """Fewest samples that leave at least ten beyond percentile p."""
    n = 11
    while n - tail_rank(n, p) < 10:
        n += 1
    return n


def tail(times, p: float) -> tuple[float, int]:
    """(value, samples beyond it) of percentile p (nearest rank)."""
    ordered = sorted(times)
    rank = tail_rank(len(ordered), p)
    return ordered[rank - 1], len(ordered) - rank


def timed_loop(workload, cd, items, seconds: float, side_tasks, speed):
    """Closed loop, one call at a time, until the calls have been busy for
    `seconds` of wall time, have left ten samples beyond the workload's
    tail percentile and, for workloads that ask for it, have made whole
    passes over the inputs; each answer is checked between calls, off the
    clock.

    The reference task is timed every REF_EVERY seconds of calls, and each
    call is rescaled by the reference times on either side of it.  The side
    tasks (fresh-process probes) also run between calls, spread evenly over
    the busy time, each between reference samples of its own (speed.py).
    Returns the rescaled and the wall times of the calls and, per input,
    the outcome of its answers (see OUTCOME).
    """
    workload.op(cd, items[0])  # warm-up: first-call costs stay off the clock
    # 16 bytes a call (wall time, reference sample before it), so
    # peak_rss_mb hardly grows when calls get faster
    walls = array("d")
    before = array("l")
    # per input: the outcome of its first answer, or CHANGED when a later
    # answer on the same input had another outcome
    outcome = bytearray(len(items))
    mark = speed.sample()
    busy = since = 0.0
    done = 0
    least = min_ops(workload.tail_percentile)
    while busy < seconds or len(walls) < least or (
            workload.whole_passes and len(walls) % len(items)):
        k = len(walls) % len(items)
        item = items[k]
        t0 = perf_counter()
        result = workload.op(cd, item)
        dt = perf_counter() - t0
        walls.append(dt)
        before.append(mark)
        busy += dt
        since += dt
        code = OUTCOME.index(workload.check(cd, item, result))
        if outcome[k] == 0:
            outcome[k] = code
        elif outcome[k] != code:
            outcome[k] = CHANGED
        if since >= REF_EVERY:
            mark = speed.sample()
            since = 0.0
        while done < len(side_tasks) and \
                busy >= seconds * (done + 0.5) / len(side_tasks):
            side_tasks[done]()
            mark = len(speed.samples) - 1
            since = 0.0
            done += 1
    speed.sample()  # closes the last stretch of calls
    for task in side_tasks[done:]:
        task()
    times = array("d", (w * speed.scale(b, b + 1)
                        for w, b in zip(walls, before)))
    return times, walls, outcome


def cli_round(commands, env: dict) -> tuple[float, float, int]:
    """Run one round of CLI commands in fresh processes, one at a time;
    returns its wall time, the children's peak MB and the number of commands
    whose exit code or stdout bytes differ from the library's answer."""
    total, peak, wrong = 0.0, 0.0, 0
    for cmd in commands:
        wall, code, out, err = run_fresh(
            [sys.executable, "-c", CLI_MAIN, *cmd.args], cmd.stdin, env)
        total += wall
        peak = max(peak, peak_mb(err.decode("ascii", "replace")))
        wrong += code != cmd.code or out != cmd.stdout
    return total, peak, wrong


def kernel_parity(workload, cd, items) -> dict | None:
    """Pure and compiled kernels agree on all pairs of the first graphs;
    None when the compiled kernel is not importable."""
    try:
        from conndim._kernels import _speedups, pure
    except ImportError:
        return None
    graphs = [workload.graph(cd, item) for item in items[:20]]
    mismatches = 0
    for n, edges in graphs:
        pairs = list(combinations(range(n), 2))
        mismatches += (list(pure.flow_many(n, edges, pairs))
                       != list(_speedups.flow_many(n, edges, pairs)))
    return {"graphs": len(graphs), "mismatches": mismatches}


def traced_passes(workload, cd, items):
    """Each item of the fixed prefix runs plain and traced, in alternating
    order, so drift in machine speed falls on both sides alike.  Returns the
    tracer, the outcomes, both busy times and the per-operation tallies."""
    tracer = Tracer()
    workload.op(cd, items[0])
    plain, traced, cdim_self = [], [], []
    plain_s = traced_s = 0.0
    for k, item in enumerate(items[:workload.trace_items]):
        for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
            if with_spans:
                tracer.enable()
                before = tracer.self_s["solver.cdim_exact"]
                t0 = perf_counter()
                traced.append(tracer.run_op(k, workload.op, cd, item))
                traced_s += perf_counter() - t0
                tracer.disable()
                cdim_self.append(tracer.self_s["solver.cdim_exact"] - before)
            else:
                t0 = perf_counter()
                plain.append(workload.op(cd, item))
                plain_s += perf_counter() - t0
    outcomes = Counter(workload.check(cd, item, r)
                       for item, r in zip(items, plain))
    # tracing must not change an answer
    outcomes["wrong"] += sum(a != b for a, b in zip(plain, traced))
    tally: Counter = Counter()
    tripped_self = 0.0
    for r, own in zip(traced, cdim_self):
        counts = workload.tally(r)
        tally.update(counts)
        if counts.get("tripped"):
            tripped_self += own
    return tracer, outcomes, plain_s, traced_s, tally, tripped_self


def layer_metrics(workload, tracer, tally, tripped_self, plain_s, traced_s,
                  startup, n_ops) -> dict:
    s, c = tracer.self_s, tracer.calls
    in_cdim = tracer.calls_by_entry().get("solver.cdim_exact", {})
    pairs = tracer.flow_pairs
    tripped = tally["tripped"]
    checked = tally["candidates_checked"]
    return {
        "kernels.flow_many.self_s": s["kernels.flow_many"],
        "kernels.flow_pairs": pairs,
        "kernels.us_per_pair":
            1e6 * s["kernels.flow_many"] / pairs if pairs else 0.0,
        "connectivity.kappa_matrix.calls": c["connectivity.kappa_matrix"],
        "connectivity.kappa_matrix.self_s": s["connectivity.kappa_matrix"],
        "connectivity.distance_matrix.self_s":
            s["connectivity.distance_matrix"],
        "resolver.pair_coverage.calls": c["resolver.pair_coverage"],
        "resolver.pair_coverage.calls_in_cdim":
            in_cdim.get("resolver.pair_coverage", 0),
        "resolver.pair_coverage.self_s": s["resolver.pair_coverage"],
        "resolver.is_resolving.calls": c["resolver.is_resolving"],
        "resolver.is_resolving.self_s": s["resolver.is_resolving"],
        "graphs.twin_classes.calls": c["graphs.twin_classes"],
        "graphs.twin_classes.calls_in_cdim":
            in_cdim.get("graphs.twin_classes", 0),
        "graphs.twin_classes.self_s": s["graphs.twin_classes"],
        "graphs.block_cut_tree.self_s": s["graphs.block_cut_tree"],
        "graphs.is_connected.self_s": s["graphs.is_connected"],
        "solver.cdim_exact.calls": c["solver.cdim_exact"],
        "solver.cdim_exact.self_s": s["solver.cdim_exact"],
        # a tripped search ran exactly the budget's worth of nodes
        "solver.search_us_per_node":
            1e6 * tripped_self / (tripped * workload.budget)
            if tripped else 0.0,
        "solver.bound_gap": tally["bound_gap"],
        "solver.inconclusive_share": tripped / n_ops,
        "solver.mdim_exact.self_s": s["solver.mdim_exact"],
        "satreduce.build_reduction.self_s": s["satreduce.build_reduction"],
        "satreduce.decide_sat.self_s": s["satreduce.decide_sat"],
        "satreduce.candidates_checked": checked,
        "satreduce.resolving_per_candidate":
            tally["resolving"] / checked if checked else 0.0,
        "cli.startup_s": statistics.median(startup),
        "trace.overhead_share": traced_s / plain_s - 1.0,
        "trace.bindings": sum(len(b) for b in tracer.bindings.values()),
    }


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def emit(declared, values: dict, correct: bool, attempted: int, failed: int,
         details: dict, stem: str) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} "
                         "differ from BENCHMARK.json")
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>14.6g} {unit}")
    print("details " + json.dumps(details, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    (OUT / f"{stem}.json").write_text(
        json.dumps({**result, "details": details}, indent=1, sort_keys=True))
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "conndim" / "__init__.py").is_file():
        raise BenchError("no conndim sources under ./src; run from the root "
                         "of a conndim checkout")
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]()

    if args.setup_probe:
        t0 = perf_counter()
        import conndim  # noqa: F401  (its import is part of set-up)
        workload.generate(args.seed)
        print(perf_counter() - t0)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(parents=True, exist_ok=True)
    build_s = build()
    env = child_env()
    startup = startup_probes(env, PROBES if args.trace else 0)

    import conndim as cd
    items = workload.generate(args.seed)
    details = {"workload": workload.name, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "budget": workload.budget, "build_s": build_s,
               "env": environment(cd), "startup_s": startup,
               "kernel_parity": kernel_parity(workload, cd, items)}
    parity_ok = (details["kernel_parity"] is None
                 or details["kernel_parity"]["mismatches"] == 0)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        tracer, outcomes, plain_s, traced_s, tally, tripped_self = \
            traced_passes(workload, cd, items)
        n_ops = min(workload.trace_items, len(items))
        values = layer_metrics(workload, tracer, tally, tripped_self,
                               plain_s, traced_s, startup, n_ops)
        (OUT / f"{stem}.spans.json").write_text(json.dumps(tracer.dump()))
        details.update(plain_s=plain_s, traced_s=traced_s,
                       outcomes=dict(outcomes), calls=tracer.calls,
                       calls_by_entry=tracer.calls_by_entry(),
                       self_s=tracer.self_s, bindings=tracer.bindings,
                       missing=[name for name, _, _ in TARGETS
                                if not tracer.bindings[name]])
        declared = spec["per_layer"]
        attempted = n_ops
    else:
        rounds = workload.cli_rounds(cd, items)
        setup_probe(args)  # warm-up: may compile bytecode
        speed = Speed()
        for _ in range(5):
            speed.sample()  # warm-up of the reference task
        # (rescaled s, wall s) per probe; (rescaled s, wall s, MB, wrong)
        # per CLI round
        setup: list[tuple[float, float]] = []
        cli: list[tuple[float, float, float, int]] = []

        def probe():
            wall, scale = speed.bracketed(lambda: setup_probe(args))
            setup.append((wall * scale, wall))

        def cli_task(commands):
            (wall, mb, wrong), scale = speed.bracketed(
                lambda: cli_round(commands, env))
            cli.append((wall * scale, wall, mb, wrong))

        side_tasks = []
        for k in range(max(PROBES, len(rounds))):
            if k < len(rounds):
                side_tasks.append(lambda c=rounds[k]: cli_task(c))
            if k < PROBES:
                side_tasks.append(probe)
        times, walls, outcome = timed_loop(workload, cd, items, args.seconds,
                                           side_tasks, speed)
        # each input counts once, however often the loop repeated it
        outcomes = Counter(OUTCOME[c] if c < CHANGED else "wrong"
                           for c in outcome if c)
        answered = sum(outcomes.values())
        outcomes["wrong"] += sum(c[3] for c in cli)
        tail_value, beyond = tail(times, workload.tail_percentile)
        values = {"setup_s": statistics.median(s for s, _ in setup),
                  "ops_per_s": len(times) / sum(times),
                  "op_s.p50": statistics.median(times),
                  "op_s.tail": tail_value,
                  "cli_s.p50": statistics.median(c[0] for c in cli),
                  "peak_rss_mb": own_peak_mb(),
                  "cli_peak_rss_mb": max(c[2] for c in cli)}
        attempted = answered + sum(len(r) for r in rounds)
        details.update(ops=len(times), inputs=len(items), answered=answered,
                       busy_s=sum(walls),
                       wall={"ops_per_s": len(walls) / sum(walls),
                             "op_s.p50": statistics.median(walls),
                             "setup_s": [w for _, w in setup],
                             "cli_round_s": [c[1] for c in cli]},
                       reference_s=statistics.median(speed.samples),
                       reference_samples=len(speed.samples),
                       setup_s=[s for s, _ in setup],
                       cli_round_s=[c[0] for c in cli],
                       tail_percentile=workload.tail_percentile,
                       tail_beyond=beyond,
                       outcomes=dict(outcomes),
                       inconclusive_share=outcomes["inconclusive"] / answered)
        declared = spec["end_to_end"]

    failed = outcomes["wrong"] + outcomes["unverified"]
    details["fail_share"] = failed / attempted
    # an unverified answer is counted as failed; only a broken certificate,
    # a CLI mismatch or a kernel disagreement makes the run incorrect
    correct = outcomes["wrong"] == 0 and parity_ok
    emit(declared, values, correct, attempted, failed, details, stem)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
