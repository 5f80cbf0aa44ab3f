"""One fresh interpreter of a perfbench run; started by run.py, not by hand.

    python3 perfbench/worker.py '<json config>'

The worker imports polyharm from the checkout's src/, resolves its algebras
and prints a "ready" line: run.py counts set-up time from spawning this
process to that line. It then does its work through polyharm's public
functions, checks every result against known answers, and prints one JSON
line with latencies, the gate's tally and, when traced, per-layer self times
and exact counters. Modes:

- round: one pass over an in-process workload's plan (see workloads.plan)
- setup: import and resolve only, then exit
- cli-replay: one cli-cold command's pipeline, replayed in-process
- cli-guard: re-parse the output of the `build` command and certify it
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 20


class Tracer:
    """Spans around the public calls the worker makes, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, op]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def call(self, name: str, op: str, fn, *args):
        with self.span(name, op):
            return fn(*args)


class NoTrace:
    """The untraced stand-in: calls straight through."""

    @staticmethod
    def span(name: str, op: str):
        return nullcontext()

    @staticmethod
    def call(name: str, op: str, fn, *args):
        return fn(*args)


class Gate:
    """Known-answer checks; a miss is counted and the run goes on."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def error(self, what: str, exc: BaseException) -> None:
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")


def resolve(ph, tr, name: str):
    if name in workloads.ALGEBRA_FILES:
        return tr.call("algebra.resolve", "setup", ph.load_file, workloads.ALGEBRA_FILES[name])
    return tr.call("algebra.resolve", "setup", ph.catalog_short_name, name)


def build_tables(ph, tr, spec) -> None:
    def tables():
        ph.struct_polys(spec)
        ph.tau(spec, ph.MixedExpr.one())

    tr.call("laplacian.tables", "setup", tables)


def predicts_resonance(spec, tree) -> bool:
    """The phi side condition, checked here independently of polyharm:
    some branch with a nonzero node has 2 * Lambda^k == n."""
    n = spec.homogeneous_dim
    for alpha in tree.nodes:
        acc = 0
        for layer in alpha:
            acc += spec.lambdas[layer - 1]
            if 2 * acc == n:
                return True
    return False


def coefficients(ph, e) -> list:
    if isinstance(e, ph.MixedExpr):
        return list(e.terms.values())
    return [c for coeff in e.terms.values() for c in coeff.terms.values()]


class Counters:
    """Exact per-layer work counts, derived from outputs. Names in
    measure.MAX_COUNTERS hold a maximum, the others a sum."""

    def __init__(self) -> None:
        self.values: dict[str, int] = defaultdict(int)

    def tree(self, tree) -> None:
        self.values["tension.nodes"] += tree.node_count()
        self.values["tension.max_degree"] = max(self.values["tension.max_degree"], tree.degree)
        self.values["laplacian.tau_applications"] += tree.node_count() + 1

    def built(self, ph, e) -> None:
        coeffs = coefficients(ph, e)
        self.values["pharmonic.build_terms"] += len(coeffs)
        bits = max(
            (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in coeffs),
            default=0,
        )
        self.values["pharmonic.coeff_bits_max"] = max(
            self.values["pharmonic.coeff_bits_max"], bits
        )

    def certificate(self, ph, cert) -> None:
        order = cert.verified_order
        self.values["laplacian.tau_applications"] += cert.p if order is None else order
        self.values["pharmonic.residual_terms"] += len(coefficients(ph, cert.residual_pminus1))

    def chars(self, layer: str, text: str) -> None:
        self.values[f"expr.{layer}_chars"] += len(text)

    def phi(self, resonant: bool) -> None:
        self.values["pharmonic.phi_attempts"] += 1
        self.values["pharmonic.phi_resonant"] += resonant

    def report(self) -> dict[str, int]:
        return dict(self.values)


def certify(ph, tr, counters, spec, tree, p: int, family: str, label: str, op: str):
    """Build one family member and certify it, as the CLI does."""
    builder = ph.build_phi if family == "phi" else ph.build_psi
    built = tr.call("pharmonic.build", op, builder, spec, tree, p)
    counters.built(ph, built)
    if isinstance(built, ph.MixedExpr):
        cert = tr.call("pharmonic.verify", op, ph.verify, spec, built, p, family, label)
    else:
        cert = tr.call(
            "pharmonic.verify_formal", op, ph.verify_formal, spec, built, tree, p, family, label
        )
    counters.certificate(ph, cert)
    return cert


def certify_op(ph, tr, counters, spec, tree, p, family, label, op, resonant) -> tuple[bool, str]:
    """One operation and its known answer: phi raises Resonance exactly when
    predicted, and every certificate is proper of order p."""
    expect_resonance = family == "phi" and resonant
    try:
        with tr.span("op", op):
            cert = certify(ph, tr, counters, spec, tree, p, family, label, op)
    except ph.Resonance as exc:
        if family == "phi":
            counters.phi(True)
        return expect_resonance, f"{op}: unpredicted Resonance {exc}"
    except Exception as exc:  # a failed operation is counted, the round goes on
        return False, f"{op}: {type(exc).__name__}: {exc}"
    if family == "phi":
        counters.phi(False)
    if expect_resonance:
        return False, f"{op}: Resonance was predicted, got a certificate"
    return cert.proper and cert.verified_order == p, (
        f"{op}: proper={cert.proper} order={cert.verified_order}"
    )


def run_round(ph, tr, gate, counters, speed, specs, plan, latencies) -> None:
    for spec in specs.values():
        build_tables(ph, tr, spec)
    for algebra, text in plan.seeds:
        spec = specs[algebra]
        sid = f"{algebra}:{text}"
        try:
            h = tr.call("expr.parse", sid, ph.parse_polynomial, text, spec)
            label = tr.call("expr.render", sid, h.render, spec.var_name)
            tree = tr.call("tension.tree", sid, ph.tension_tree, spec, h)
        except Exception as exc:  # a broken seed fails its ops, the round goes on
            for _ in range(2 * len(plan.ps)):
                gate.error(sid, exc)
            continue
        counters.chars("parse", text)
        counters.chars("render", label)
        counters.tree(tree)
        resonant = predicts_resonance(spec, tree)
        for p in plan.ps:
            for family in ("phi", "psi"):
                op = f"{sid}:p{p}:{family}"
                start = time.perf_counter()
                ok, what = certify_op(ph, tr, counters, spec, tree, p, family, label, op, resonant)
                latencies.append((start, time.perf_counter()))
                speed.maybe_sample()
                gate.check(ok, what)
            if plan.recurrence:
                try:
                    ok = tr.call(
                        "pharmonic.recurrence", sid, ph.recurrence_check, spec, tree, p
                    )
                except Exception as exc:
                    gate.error(f"{sid}:p{p}:recurrence", exc)
                    continue
                counters.values["laplacian.tau_applications"] += 1 if resonant else 2
                gate.check(ok, f"{sid}:p{p}: recurrence identity fails")
                speed.maybe_sample()


def replay_command(ph, tr, gate, counters, spec, cmd: dict) -> None:
    """The pipeline of one CLI command, through the same public functions."""
    op = cmd["name"]
    namer = spec.var_name
    build_tables(ph, tr, spec)
    if "expr_file" in cmd:
        text = workloads.read_expr(ROOT, cmd["expr_file"])
        e = tr.call("expr.parse", op, ph.parse, text, spec)
        counters.chars("parse", text)
        cert = tr.call("pharmonic.verify", op, ph.verify, spec, e, cmd["p"], "expression", text)
        counters.certificate(ph, cert)
        gate.check(cert.proper and cert.verified_order == cmd["p"], f"{op}: not proper")
        return
    if cmd["command"] == "validate":
        gate.check(True, op)
        return
    if "seed" in cmd:
        h = tr.call("expr.parse", op, ph.parse_polynomial, cmd["seed"], spec)
        counters.chars("parse", cmd["seed"])
        tree = tr.call("tension.tree", op, ph.tension_tree, spec, h)
    else:
        from polyharm.cli import parse_radial_seed

        seed = tr.call("cli.parse_radial_seed", op, parse_radial_seed, cmd["radial_seed"])
        tree = tr.call("tension.tree", op, ph.tension_tree_radial, spec, seed)
    counters.tree(tree)
    if cmd["command"] == "tree":
        render = {
            "text": ph.render_tree_text,
            "latex": ph.render_tree_latex,
            "json": lambda t: json.dumps(ph.tree_to_json(t), sort_keys=True),
        }[cmd["format"]]
        tr.call("tension.render", op, render, tree)
        gate.check(True, op)
        return
    label = cmd.get("seed", cmd.get("radial_seed"))
    if cmd["command"] == "verify":
        cert = certify(ph, tr, counters, spec, tree, cmd["p"], cmd["kind"], label, op)
        gate.check(cert.proper and cert.verified_order == cmd["p"], f"{op}: not proper")
    else:
        builder = ph.build_phi if cmd["kind"] == "phi" else ph.build_psi
        built = tr.call("pharmonic.build", op, builder, spec, tree, cmd["p"])
        counters.built(ph, built)
        if cmd["format"] == "latex":
            text = tr.call("expr.render", op, built.latex, namer)
        else:
            text = tr.call("expr.render", op, built.render, namer)
        counters.chars("render", text)
        gate.check(True, op)
    if cmd["kind"] == "phi":
        counters.phi(False)


def guard_build_output(ph, gate, spec, cmd: dict, stdout: str) -> None:
    """Certify the expression a `build --format json` command printed."""
    e = ph.parse(json.loads(stdout)["expr"], spec)
    cert = ph.verify(spec, e, cmd["p"])
    gate.check(
        cert.proper and cert.verified_order == cmd["p"],
        f"{cmd['name']} output re-parsed: proper={cert.proper} order={cert.verified_order}",
    )


def main() -> int:
    cfg = json.loads(sys.argv[1])
    traced = bool(cfg.get("trace"))
    tr = Tracer() if traced else NoTrace()
    import polyharm as ph

    mode = cfg["mode"]
    command = None
    if mode in ("cli-replay", "cli-guard"):
        command = next(c for c in workloads.CLI_COMMANDS if c["name"] == cfg["command"])
        names: tuple[str, ...] = (command["algebra"],)
    else:
        names = workloads.algebras(cfg["workload"])
    specs = {name: resolve(ph, tr, name) for name in names}
    print(json.dumps({"ready": True, "polyharm": ph.__file__}), flush=True)
    if mode == "setup":
        return 0

    gate, counters, result = Gate(), Counters(), {}
    if mode == "round":
        # Reference-kernel samples run between operations, outside every
        # latency, and their time is not work (see measure.Speed).
        speed, latencies = measure.Speed(), []
        speed.sample(5)
        start = time.perf_counter()
        plan = workloads.plan(cfg["workload"], cfg["seed"])
        run_round(ph, tr, gate, counters, speed, specs, plan, latencies)
        end = time.perf_counter()
        speed.sample()
        result = {
            "ops": len(latencies),
            "latencies": [speed.at_reference(a, b) for a, b in latencies],
            "work_s": speed.at_reference(start, end),
            "setup_factor": measure.factor(sum(speed.times[:5]), 5),
            "speed_factor": speed.factor(),
        }
    else:
        spec = specs[command["algebra"]]
        try:
            if mode == "cli-replay":
                replay_command(ph, tr, gate, counters, spec, command)
            else:
                guard_build_output(ph, gate, spec, command, cfg["stdout"])
        except Exception as exc:
            gate.error(command["name"], exc)
    result["attempted"] = gate.attempted
    result["failed"] = len(gate.failures)
    result["failures"] = gate.failures[:MAX_REPORTED_FAILURES]
    if traced:
        spans = [tuple(s) for s in tr.spans]
        result["self_s"] = measure.self_times(spans)
        result["counters"] = counters.report()
        if cfg.get("trace_path"):
            fields = ("name", "start", "end", "parent", "op")
            with open(cfg["trace_path"], "w", encoding="utf-8") as fh:
                json.dump([dict(zip(fields, s)) for s in spans], fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
