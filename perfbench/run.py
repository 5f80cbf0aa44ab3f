"""polyharm benchmark: end-to-end and per-layer metrics for four workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The run repeats rounds until --seconds have
passed; every round is a fresh interpreter (see worker.py), started one at a
time: a closed loop with one caller and no threads.

- sweep, deep-build, wide-verify: a round builds and certifies every
  (seed, p, family) of the workload's plan in-process (see workloads.py).
- cli-cold: a round runs each polyharm command of a fixed list as its own
  process, and once imports polyharm to time set-up.

Every time is reported at reference speed (see measure.Speed): a fixed
pure-Python kernel runs between operations, and each stretch of time between
two kernel samples is scaled by the kernel's reference time over its measured
time at both ends. On a shared machine the same work takes up to twice as
long from one minute to the next; the kernel slows down with it, while a
change to polyharm does not move it. Each round's mean factor is kept in the
record.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 every
other round is traced: spans around each public call, written to
perfbench/out/, give per-layer self times and exact counters, and the
untraced rounds between them give the tracing overhead. Every operation passes
a known-answer gate; a miss is counted in `failed` and the run goes on.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it print every metric by name with its unit; the
full record, with provenance and sample counts, goes to perfbench/out/.

Alongside: perfbench/spread.py runs several seeds and reports each metric's
spread, perfbench/record_cli.py re-records the expected CLI output, and
`python3 -m pytest perfbench/tests` tests the benchmark itself.
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
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import workloads  # noqa: E402

EXPECTED_CLI = HERE / "inputs" / "cli_expected.json"
LAYER_TIMES = (
    "algebra.resolve",
    "laplacian.tables",
    "expr.parse",
    "expr.render",
    "tension.tree",
    "tension.render",
    "pharmonic.build",
    "pharmonic.verify",
    "pharmonic.verify_formal",
    "pharmonic.recurrence",
)
LAYER_COUNTS = (
    "tension.nodes",
    "tension.max_degree",
    "laplacian.tau_applications",
    "pharmonic.build_terms",
    "pharmonic.coeff_bits_max",
    "pharmonic.residual_terms",
    "expr.parse_chars",
    "expr.render_chars",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], ready_line: bool) -> dict:
    """Run one child to completion, one pipe only, and reap it with wait4 for
    its peak memory. With ready_line, the child's first stdout line marks the
    end of its set-up."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err
        )
        try:
            ready_at, first = None, b""
            if ready_line:
                first = proc.stdout.readline()
                ready_at = time.perf_counter()
            rest = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read()
    return {
        "returncode": proc.returncode,
        "first": first,
        "stdout": rest,
        "stderr": stderr,
        "setup_s": None if ready_at is None else ready_at - start,
        "start": start,
        "end": end,
        "maxrss_mb": usage.ru_maxrss / 1024,
    }


def run_worker(cfg: dict) -> dict:
    """Start worker.py; return its set-up time, result and peak memory."""
    child = spawn([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)], ready_line=True)
    try:
        ready = json.loads(child["first"])
        result = json.loads(child["stdout"]) if cfg["mode"] != "setup" else {}
    except json.JSONDecodeError:
        ready, result = None, None
    if child["returncode"] != 0 or ready is None or result is None:
        raise BenchError(
            f"worker {cfg['mode']} failed with exit code {child['returncode']}:\n"
            + child["stderr"].decode(errors="replace")[-2000:]
        )
    src = (ROOT / "src").resolve()
    if not Path(ready["polyharm"]).resolve().is_relative_to(src):
        raise BenchError(f"polyharm resolves to {ready['polyharm']}, not under {src}")
    return {**result, "setup_s": child["setup_s"], "maxrss_mb": child["maxrss_mb"]}


def provenance() -> dict:
    git = None
    if (ROOT / ".git").exists():
        env = {**os.environ, "GIT_DIR": str(ROOT / ".git"), "GIT_WORK_TREE": str(ROOT)}

        def out(*args: str) -> str:
            return subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, check=True
            ).stdout.strip()

        try:
            git = {
                "sha": out("rev-parse", "HEAD"),
                "dirty": bool(out("status", "--porcelain", "--untracked-files=no")),
            }
        except (OSError, subprocess.CalledProcessError):
            git = None
    return {
        "git": git,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "polyharm": "src/polyharm/__init__.py",  # run_worker refuses any other
    }


class Tally:
    """What the rounds of one run measured."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.latencies: list[float] = []  # of every op of the untraced rounds
        self.ops_per_s: list[float] = []  # per untraced round
        self.op_p50_s: list[float] = []  # per untraced round
        self.traced_ops_per_s: list[float] = []
        self.speed_factors: list[float] = []  # per round, see measure.Speed
        self.maxrss_mb = 0.0
        self.rss_samples = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.self_s: list[dict[str, float]] = []  # per traced round
        self.counters: list[dict[str, float]] = []  # per traced round

    def gate(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failures += result["failures"]
        hidden = result["failed"] - len(result["failures"])
        self.failures += ["(unreported failure)"] * hidden

    def untraced(self, ops_per_s: float, latencies: list[float]) -> None:
        self.ops_per_s.append(ops_per_s)
        self.op_p50_s.append(statistics.median(latencies))
        self.latencies += latencies

    def rss(self, megabytes: float) -> None:
        self.maxrss_mb = max(self.maxrss_mb, megabytes)
        self.rss_samples += 1

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def in_process_round(tally: Tally, args, traced: bool, index: int) -> None:
    cfg = {"mode": "round", "workload": args.workload, "seed": args.seed, "trace": traced}
    if traced:
        cfg["trace_path"] = str(OUT / f"trace-{args.workload}-seed{args.seed}-r{index}.json")
    result = run_worker(cfg)
    f = result["speed_factor"]
    tally.gate(result)
    tally.speed_factors.append(f)
    tally.setup_s.append(result["setup_s"] * result["setup_factor"])
    tally.rss(result["maxrss_mb"])
    rate = result["ops"] / result["work_s"]
    if traced:
        tally.traced_ops_per_s.append(rate)
        tally.self_s.append({k: v * f for k, v in result["self_s"].items()})
        tally.counters.append(result["counters"])
    else:
        tally.untraced(rate, result["latencies"])


def cli_round(tally: Tally, args, traced: bool, index: int, expected: dict, outputs: dict) -> None:
    """One setup probe, then every command once, each in a fresh process.
    Traced rounds replay each command's pipeline in-process instead. The
    reference kernel runs here between the processes."""
    speed = measure.Speed()
    speed.sample(5)
    probe_start = time.perf_counter()
    probe = run_worker({"mode": "setup", "workload": "cli-cold"})
    probe_end = time.perf_counter()
    speed.sample(5)
    intervals: list[tuple[float, float]] = []
    self_s: dict[str, float] = {}
    counters: list[dict[str, int]] = []
    for cmd in workloads.CLI_COMMANDS:
        name = cmd["name"]
        if traced:
            cfg = {
                "mode": "cli-replay",
                "command": name,
                "trace": True,
                "trace_path": str(OUT / f"trace-cli-cold-seed{args.seed}-r{index}-{name}.json"),
            }
            start = time.perf_counter()
            result = run_worker(cfg)
            intervals.append((start, time.perf_counter()))
            tally.gate(result)
            for key, value in result["self_s"].items():
                self_s[key] = self_s.get(key, 0.0) + value
            counters.append(result["counters"])
        else:
            argv = [sys.executable, "-m", "polyharm.cli", *workloads.cli_argv(ROOT, cmd)]
            child = spawn(argv, ready_line=False)
            intervals.append((child["start"], child["end"]))
            tally.rss(child["maxrss_mb"])
            check_cli(tally, cmd, child, expected)
            outputs.setdefault(name, child["stdout"])
        speed.sample(5)
    f = speed.factor()
    tally.speed_factors.append(f)
    tally.setup_s.append(probe["setup_s"] / (probe_end - probe_start)
                         * speed.at_reference(probe_start, probe_end))
    latencies = [speed.at_reference(start, end) for start, end in intervals]
    rate = len(latencies) / sum(latencies)
    if traced:
        tally.traced_ops_per_s.append(rate)
        tally.self_s.append({k: v * f for k, v in self_s.items()})
        tally.counters.append(measure.merge_counters(counters))
    else:
        tally.untraced(rate, latencies)


def check_cli(tally: Tally, cmd: dict, child: dict, expected: dict) -> None:
    """Exit 0, nothing on stderr, `proper: true` from verify, and stdout
    byte-identical to the output recorded in inputs/cli_expected.json."""
    name, out = cmd["name"], child["stdout"]
    problems = []
    if child["returncode"] != 0:
        problems.append(f"exit code {child['returncode']}")
    if child["stderr"]:
        problems.append("stderr: " + child["stderr"].decode(errors="replace")[-300:])
    if cmd["command"] == "verify" and b"proper: true\n" not in out:
        problems.append("verify did not print proper: true")
    if hashlib.sha256(out).hexdigest() != expected.get(name):
        problems.append("stdout differs from the recorded output")
    tally.check(not problems, f"cli {name}: " + "; ".join(problems))


def cli_guard(tally: Tally, outputs: dict) -> None:
    stdout = outputs.get(workloads.CLI_GUARD)
    if stdout is None:
        return
    cfg = {"mode": "cli-guard", "command": workloads.CLI_GUARD, "stdout": stdout.decode()}
    tally.gate(run_worker(cfg))


def end_to_end(tally: Tally, workload: str) -> tuple[dict, dict]:
    """Metrics, and the sample counts and tail percentile behind them."""
    if workload == "cli-cold":
        q = workloads.CLI_TAIL_PERCENTILE
    else:
        q = workloads.plan(workload, 0).tail_percentile
    tail, beyond = measure.percentile(tally.latencies, q)
    metrics = {
        "ops_per_s": (statistics.median(tally.ops_per_s), "1/s"),
        # Rounds repeat the same operations; where an even number of them
        # puts the median between two operations of different latency, the
        # median of each round's median is steadier than that of all samples.
        "op_p50_ms": (statistics.median(tally.op_p50_s) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(tally.setup_s), "s"),
        "peak_rss_mb": (tally.maxrss_mb, "MB"),
    }
    detail = {
        "samples": {
            "ops_per_s": len(tally.ops_per_s),
            "op_p50_ms": [len(tally.op_p50_s), len(tally.latencies)],
            "op_tail_ms": len(tally.latencies),
            "setup_s": len(tally.setup_s),
            "peak_rss_mb": tally.rss_samples,
        },
        "op_tail_percentile": q,
        "op_tail_beyond": beyond,
        "round_ops_per_s": tally.ops_per_s,
        "round_setup_s": tally.setup_s,
        "round_speed_factor": tally.speed_factors,
    }
    return metrics, detail


def per_layer(tally: Tally) -> tuple[dict, dict]:
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYER_TIMES:
        metrics[f"{layer}_s"] = (
            statistics.median(r.get(layer, 0.0) for r in tally.self_s),
            "s",
        )
    first = tally.counters[0]
    for name in LAYER_COUNTS:
        metrics[name] = (first.get(name, 0), "count")
    attempts = first.get("pharmonic.phi_attempts", 0)
    resonant = first.get("pharmonic.phi_resonant", 0)
    metrics["pharmonic.resonance_ratio"] = (resonant / attempts if attempts else 0.0, "ratio")
    for index, other in enumerate(tally.counters[1:], start=1):
        tally.check(other == first, f"exact counters of traced round {index} differ from round 0")
    traced = statistics.median(tally.traced_ops_per_s)
    untraced = statistics.median(tally.ops_per_s)
    metrics["trace.ops_per_s"] = (traced, "1/s")
    metrics["trace.overhead_pct"] = ((untraced - traced) / untraced * 100, "%")
    detail = {
        "samples": {"traced_rounds": len(tally.self_s), "untraced_rounds": len(tally.ops_per_s)},
        "untraced_ops_per_s": untraced,
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "polyharm" / "__init__.py").is_file():
            raise BenchError(f"no polyharm sources under {ROOT / 'src'}")
        OUT.mkdir(exist_ok=True)
        expected = json.loads(EXPECTED_CLI.read_text(encoding="utf-8"))
        # Untimed: checks where polyharm resolves and warms the byte-code cache.
        run_worker({"mode": "setup", "workload": args.workload})

        tally = Tally()
        outputs: dict[str, bytes] = {}
        start = time.perf_counter()
        index, last = 0, 0.0
        # Start another round only if it should end within --seconds; a traced
        # run needs at least one traced and one untraced round.
        while index < 1 + args.trace or time.perf_counter() - start + last <= args.seconds:
            traced = bool(args.trace) and index % 2 == 0
            began = time.perf_counter()
            if args.workload == "cli-cold":
                cli_round(tally, args, traced, index, expected, outputs)
            else:
                in_process_round(tally, args, traced, index)
            last = time.perf_counter() - began
            index += 1
        if args.workload == "cli-cold":
            cli_guard(tally, outputs)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, detail = per_layer(tally)
    else:
        metrics, detail = end_to_end(tally, args.workload)
    failed = len(tally.failures)
    detail["fail_ratio"] = failed / tally.attempted

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for name, value in detail.items():
        print(f"  {name:32s} {value}")
    for failure in tally.failures[:20]:
        print(f"  FAIL {failure}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "detail": detail,
        "failures": tally.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"  record: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": tally.attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
