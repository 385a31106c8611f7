"""Repository benchmark: four seeded workloads through the public API.

Run from the repository root::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes over one fixed list
of inputs and reports the per-layer ledger (self time per layer, counts)
plus the tracing overhead.  Every problem's optimum is checked against a
sequential ``repro.dp`` reference, outside the timed calls.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
full record (provenance, workload properties, sample counts).  See
``perfbench/README.md`` for the workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
#: Never used while the benchmark or a change is tuned; later claims
#: must also hold on it.
HELD_OUT_SEED = 7919
#: Extra fresh-process set-ups per run; ``setup_s`` is the median of
#: these and the run's own set-up.
SETUP_SAMPLES = 2

#: Metric names and units come from BENCHMARK.json, their one description.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

DESIGNS = ("fig3-pipelined", "fig4-broadcast", "fig5-feedback", "parenthesizer-systolic")


@dataclasses.dataclass
class Tally:
    """Everything one pass over some decks measured and checked."""

    walls: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)
    methods: collections.Counter = dataclasses.field(default_factory=collections.Counter)
    deck_ticks: list[int] = dataclasses.field(default_factory=list)
    pe_ticks: int = 0
    wall_ticks: int = 0
    serial_ops: int = 0
    iterations: int = 0
    repeated: int = 0
    strict_s: float = 0.0
    strict_twin_s: float = 0.0
    dnc_rounds: int = 0
    dnc_multiplications: int = 0
    batch: collections.Counter = dataclasses.field(default_factory=collections.Counter)

    @property
    def call_s(self) -> float:
        return sum(self.walls)


def run_deck(wl: Any, steps: list[Any], tally: Tally) -> list[tuple]:
    """Time one public-API call per step; return what to settle.

    Checking is left to :func:`settle`, so a traced pass can check after
    its tracer is removed and no check work enters the ledger.
    """
    out = []
    for index, step in enumerate(steps):
        wl.last_stats = None
        start = time.perf_counter()
        try:
            reports = wl.call(step)
        except Exception as exc:  # a raising call is a failed problem
            wall = time.perf_counter() - start
            out.append((index, step, None, wall, f"{type(exc).__name__}: {exc}", None))
        else:
            wall = time.perf_counter() - start
            out.append((index, step, reports, wall, None, wl.last_stats))
        tally.walls.append(wall)
    return out


def settle(wl: Any, done: list[tuple], tally: Tally, seen: set) -> None:
    """Check and account the calls of one deck.

    An input counts as repeated when set-up (``seen``) or an earlier call
    of the same deck already had its digest.  Decks draw fresh costs, so
    only these repeats can occur, and memory stays bounded.
    """
    from repro.dnc import ChainScheduleResult
    from repro.exec import problem_digest
    from workloads import run_report

    deck_walls = {index: wall for index, _, _, wall, _, _ in done}
    deck_seen: set = set()
    ticks = 0
    for index, step, reports, wall, raised, stats in done:
        n = len(step.problems)
        tally.attempted += n
        for problem in step.problems:
            digest = problem_digest(problem)
            tally.repeated += digest in seen or digest in deck_seen
            deck_seen.add(digest)
        if raised is not None:
            tally.failed += n
            tally.errors.append(f"{wl.name} step {index}: raised {raised}")
            continue
        try:
            errors = wl.check(step, reports)
        except Exception as exc:  # a check the library cannot complete fails
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        if errors:
            tally.failed += min(n, len(errors))
            tally.errors.extend(f"{wl.name} step {index}: {e}" for e in errors)
        if step.twin is not None:
            tally.strict_s += wall
            tally.strict_twin_s += deck_walls[step.twin]
        for rep in reports:
            # "divide-and-conquer (K=12)" counts as "divide-and-conquer".
            tally.methods[rep.method.split(" (")[0]] += 1
            rr = run_report(rep)
            if rr is not None:
                ticks += rr.wall_ticks
                tally.pe_ticks += rr.num_pes * rr.wall_ticks
                tally.serial_ops += rr.serial_ops
                tally.iterations += rr.iterations
            if isinstance(rep.detail, ChainScheduleResult):
                tally.dnc_rounds += rep.detail.rounds
                tally.dnc_multiplications += rep.detail.total_multiplications
        if stats is not None:
            pooled = stats.per_shard_seconds[: stats.shards]
            tally.batch.update(
                executed=stats.executed,
                vectorized=stats.vectorized_problems,
                shards=stats.shards,
                sharded_problems=sum(stats.shard_sizes),
            )
            tally.batch["worker_s"] += sum(pooled)
    tally.wall_ticks += ticks
    tally.deck_ticks.append(ticks)


def properties(tally: Tally) -> dict[str, Any]:
    """Input properties a later claim can cite, as measured shares."""
    problems = max(tally.attempted, 1)
    completed = sum(tally.methods.values()) or 1
    return {
        "repeated_share": tally.repeated / problems,
        "dispatch_mix": {m: c / completed for m, c in sorted(tally.methods.items())},
        "shardable_share": tally.batch["sharded_problems"] / problems,
    }


def timed_run(wl: Any, seconds: float, seen: set) -> Tally:
    tally = Tally()
    start = time.perf_counter()
    while not tally.deck_ticks or time.perf_counter() - start < seconds:
        steps = wl.deck()
        settle(wl, run_deck(wl, steps, tally), tally, seen)
    return tally


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    walls_ms = [w * 1e3 for w in tally.walls]
    deciles = statistics.quantiles(walls_ms, n=10) if len(walls_ms) > 1 else walls_ms * 9
    return {
        "setup_s": setup_s,
        "problems_per_s": sum(tally.methods.values()) / tally.call_s,
        "call_p50_ms": statistics.median(walls_ms),
        "call_p90_ms": deciles[8],
        "sim_ticks": statistics.median(tally.deck_ticks),
        "sim_pe_ticks_per_s": tally.pe_ticks / tally.call_s,
        "pass_frac": 1.0 - tally.failed / max(tally.attempted, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def ledger(tally: Tally, tracer: Any, evictions: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in ms are self times)."""
    from tracer import self_times
    from workloads import WORKERS

    self_ms = {k: v / 1e6 for k, v in self_times(tracer.spans).items()}
    count = tracer.counts.get
    gets = count("exec.cache.gets", 0)
    worker_ms = tally.batch["worker_s"] * 1e3
    pool_ms = self_ms.get("exec.pool", 0.0)
    wall_ms = tally.call_s * 1e3
    out = {
        "core.recommend.self_ms": self_ms.get("core.recommend", 0.0),
        "core.solve.self_ms": self_ms.get("core.solve", 0.0),
        "dp.oracle.ms": self_ms.get("dp.oracle", 0.0),
        "dp.oracle.calls": count("dp.oracle.calls", 0),
        **{f"systolic.{lane}.{d}.ms": self_ms.get(f"systolic.{lane}.{d}", 0.0)
           for lane in ("fast", "rtl") for d in DESIGNS},
        "systolic.pe_ticks": tally.pe_ticks,
        "systolic.wall_ticks": tally.wall_ticks,
        "systolic.serial_ops": tally.serial_ops,
        "systolic.iterations": tally.iterations,
        "analysis.strict.ratio": (
            tally.strict_s / tally.strict_twin_s if tally.strict_twin_s else 0.0
        ),
        "semiring.matmul.ms": self_ms.get("semiring.matmul", 0.0),
        "semiring.matmul.calls": count("semiring.matmul.calls", 0),
        "semiring.matmul.ops": count("semiring.matmul.ops", 0),
        "semiring.matmul.bytes": count("semiring.matmul.bytes", 0),
        "dnc.chain_product.self_ms": self_ms.get("dnc.chain_product", 0.0),
        "dnc.multiplications": tally.dnc_multiplications,
        "dnc.rounds": tally.dnc_rounds,
        "exec.digest.ms": self_ms.get("exec.digest", 0.0),
        "exec.cache.get.ms": self_ms.get("exec.cache.get", 0.0),
        "exec.cache.put.ms": self_ms.get("exec.cache.put", 0.0),
        "exec.cache.hit_rate": count("exec.cache.hits", 0) / gets if gets else 0.0,
        "exec.cache.evictions": evictions,
        "exec.grouping.ms": self_ms.get("exec.grouping", 0.0),
        "exec.stack.ms": self_ms.get("exec.stack", 0.0),
        "exec.kernel.ms": self_ms.get("exec.kernel", 0.0),
        "exec.fill_factor": (
            tally.batch["vectorized"] / tally.batch["executed"]
            if tally.batch["executed"] else 0.0
        ),
        "exec.pool.ms": pool_ms,
        "exec.pool.worker_ms": worker_ms,
        # Pool wall beyond a perfect split of the workers' busy time.
        "exec.pool.overhead_ms": pool_ms - worker_ms / WORKERS if pool_ms else 0.0,
        "exec.shards": tally.batch["shards"],
        "trace.wall_ms": wall_ms,
        "trace.unattributed_ms": wall_ms - sum(self_ms.values()),
    }
    return out


def traced_run(wl: Any, seconds: float) -> tuple[dict[str, float], Tally, dict[str, Any]]:
    """Alternate untraced and traced passes over one fixed input list.

    Both kinds of pass make all their calls first and check afterwards,
    so they differ only in the tracer; which one goes first alternates.
    """
    from tracer import Tracer

    decks = [wl.deck() for _ in range(wl.trace_decks)]
    seen = wl.seen_at_setup()
    untraced: list[float] = []
    ledgers: list[dict[str, float]] = []
    total = Tally()
    start = time.perf_counter()
    while len(ledgers) < 2 or time.perf_counter() - start < seconds:
        for traced in (False, True)[:: 1 if len(ledgers) % 2 else -1]:
            wl.reset()
            tally = Tally()
            tracer = Tracer()
            with tracer.installed() if traced else contextlib.nullcontext():
                done = [run_deck(wl, steps, tally) for steps in decks]
            for d in done:
                settle(wl, d, tally, seen)
            if traced:
                ledgers.append(ledger(tally, tracer, wl.evictions()))
                # Every pass runs the same inputs: one pass has the properties.
                props = properties(tally)
                total.walls += tally.walls
            else:
                untraced.append(tally.call_s * 1e3)
            total.attempted += tally.attempted
            total.failed += tally.failed
            total.errors += tally.errors
    metrics = {name: statistics.median(lg[name] for lg in ledgers) for name in ledgers[0]}
    metrics["trace.overhead_ms"] = metrics["trace.wall_ms"] - statistics.median(untraced)
    return metrics, total, props


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args: argparse.Namespace) -> dict[str, Any]:
    import numpy
    from workloads import WORKERS

    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }


def fresh_setup_seconds(args: argparse.Namespace) -> float:
    """Set-up time of a fresh interpreter (import, inputs, warm-up)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: make one reference per deck wrong")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    from workloads import WORKLOADS  # imports repro: part of set-up

    wl = WORKLOADS[args.workload](args.seed, corrupt_reference=args.corrupt_reference)
    wl.setup()
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        values, tally, props = traced_run(wl, args.seconds)
        units = PER_LAYER
    else:
        tally = timed_run(wl, args.seconds, wl.seen_at_setup())
        props = properties(tally)
        setups = [setup_s] + [fresh_setup_seconds(args) for _ in range(SETUP_SAMPLES)]
        values = end_to_end(tally, statistics.median(setups))
        units = END_TO_END

    for line in tally.errors:
        print(f"FAIL {line}", file=sys.stderr)
    for name in units:
        print(f"{args.workload:>7} {name:<32} {values[name]:>16.6g} {units[name]}",
              file=sys.stderr)
    record = {
        "provenance": provenance(args),
        "properties": props,
        "calls": len(tally.walls),
        "problems": tally.attempted,
    }
    if not args.trace:
        record["setup_samples_s"] = setups
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
