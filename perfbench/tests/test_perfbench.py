"""Tests of the benchmark itself, at tiny size; no wall-time bound is checked.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import polyharm as ph  # noqa: E402  (worker put the checkout's src/ on the path)

TINY = workloads.Plan(
    algebras=("ch2", "rh3"),
    seeds=(("ch2", "z^2 + x*y"), ("ch2", "x^2*z"), ("rh3", "x1_1^2*x1_2")),
    ps=(1, 2, 3),
    recurrence=True,
    tail_percentile=90.0,
)


def tiny_round(plan=TINY):
    tr = worker.Tracer()
    gate, counters, latencies = worker.Gate(), worker.Counters(), []
    specs = {name: worker.resolve(ph, tr, name) for name in plan.algebras}
    worker.run_round(ph, tr, gate, counters, measure.Speed(), specs, plan, latencies)
    return tr, gate, counters.report(), latencies


def test_tiny_round_passes_the_gate_and_counts_exactly():
    tr, gate, first, latencies = tiny_round()
    assert gate.failures == []
    assert len(latencies) == 2 * len(TINY.seeds) * len(TINY.ps)
    # ops + one recurrence check per (seed, p)
    assert gate.attempted == len(latencies) + len(TINY.seeds) * len(TINY.ps)
    assert first["tension.nodes"] > 0 and first["pharmonic.build_terms"] > 0
    # rh3 resonates, the ch2 seeds do not
    assert 0 < first["pharmonic.phi_resonant"] < first["pharmonic.phi_attempts"]
    _, _, second, _ = tiny_round()
    assert second == first


def test_counters_repeat_in_a_fresh_interpreter():
    code = (
        "import json, sys; sys.path.insert(0, %r); sys.path.insert(0, %r)\n"
        "import test_perfbench as t\n"
        "print(json.dumps(t.tiny_round()[2], sort_keys=True))\n"
    ) % (str(HERE), str(Path(__file__).parent))
    runs = [
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                       text=True, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert json.loads(runs[0]) == json.loads(json.dumps(tiny_round()[2], sort_keys=True))


def test_resonance_prediction_matches_polyharm():
    for name, text in (("ch2", "z^2"), ("ch2", "x"), ("rh2", "x^4"), ("rh3", "x1_1^2")):
        spec = ph.catalog_short_name(name)
        tree = ph.tension_tree(spec, ph.parse_polynomial(text, spec))
        try:
            ph.build_phi(spec, tree, 2)
            raised = False
        except ph.Resonance:
            raised = True
        assert worker.predicts_resonance(spec, tree) == raised, (name, text)


def test_gate_fails_an_op_whose_resonance_was_mispredicted():
    spec = ph.catalog_short_name("ch2")
    tree = ph.tension_tree(spec, ph.parse_polynomial("x", spec))
    args = (ph, worker.NoTrace(), worker.Counters(), spec, tree, 2, "phi", "x", "op")
    assert worker.certify_op(*args, False)[0]
    assert not worker.certify_op(*args, True)[0]


@pytest.mark.parametrize("name", [c["name"] for c in workloads.CLI_COMMANDS])
def test_cli_replay_passes_and_counts_exactly(name):
    cmd = next(c for c in workloads.CLI_COMMANDS if c["name"] == name)
    reports = []
    for _ in range(2):
        tr, gate, counters = worker.Tracer(), worker.Gate(), worker.Counters()
        spec = worker.resolve(ph, tr, cmd["algebra"])
        worker.replay_command(ph, tr, gate, counters, spec, cmd)
        assert gate.failures == []
        assert "laplacian.tables" in measure.self_times([tuple(s) for s in tr.spans])
        reports.append(counters.report())
    assert reports[0] == reports[1]


def test_cli_guard_certifies_build_output():
    cmd = next(c for c in workloads.CLI_COMMANDS if c["name"] == workloads.CLI_GUARD)
    argv = [sys.executable, "-m", "polyharm.cli", *workloads.cli_argv(ROOT, cmd)]
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    gate = worker.Gate()
    worker.guard_build_output(ph, gate, ph.catalog_short_name(cmd["algebra"]), cmd, out.stdout)
    assert gate.attempted == 1 and gate.failures == []


def test_sweep_pool_depends_only_on_the_seed():
    assert workloads.sweep_seeds(3) == workloads.sweep_seeds(3)
    assert workloads.sweep_seeds(3) != workloads.sweep_seeds(4)
    for algebra in workloads.SWEEP_VARIABLES:
        texts = [t for a, t in workloads.sweep_seeds(3) if a == algebra]
        assert len(texts) == len(set(texts))


def test_random_polynomial_text_parses_to_its_terms():
    import random

    spec = ph.catalog_short_name("ch3")
    rng = random.Random(7)
    for _ in range(50):
        names = workloads.SWEEP_VARIABLES["ch3"]
        support = workloads.random_support(rng, names, rng.randint(0, 4), rng.randint(1, 4))
        text = workloads.polynomial_text(names, support, rng)
        poly = ph.parse_polynomial(text, spec)
        assert not poly.is_zero()
        assert ph.parse_polynomial(poly.render(spec.var_name), spec) == poly


def test_percentile_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert measure.percentile(values, 50) == (50, 50)
    assert measure.percentile(values, 90) == (90, 10)
    assert measure.percentile(values, 99) == (99, 1)
    assert measure.percentile(values, 100) == (100, 0)
    assert measure.percentile([5.0, 1.0, 3.0], 50) == (3.0, 1)
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_quartile_spread_matches_statistics():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 11.3, 9.8, 10.1]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert measure.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert measure.quartile_spread([2.0] * 5) == 0.0


def test_self_times_subtract_child_coverage():
    spans = [
        ("op", 0.0, 10.0, None, "a"),
        ("build", 1.0, 4.0, 0, "a"),
        ("verify", 3.0, 6.0, 0, "a"),  # overlaps build: covered 1..6 counts once
        ("inner", 4.5, 5.0, 2, "a"),
        ("op", 20.0, 21.0, None, "b"),
    ]
    got = measure.self_times(spans)
    assert got["op"] == pytest.approx(5.0 + 1.0)
    assert got["build"] == pytest.approx(3.0)
    assert got["verify"] == pytest.approx(2.5)
    assert got["inner"] == pytest.approx(0.5)
    # child intervals reaching outside the parent are clipped to it
    assert measure.self_times([("p", 0.0, 2.0, None, ""), ("c", 1.0, 3.0, 0, "")])["p"] == 1.0


def test_speed_factor_rescales_to_the_reference_kernel():
    speed = measure.Speed()
    speed.sample(3)
    assert speed.calls == 3 and speed.total_s > 0
    assert speed.factor() == pytest.approx(measure.REFERENCE_KERNEL_S * 3 / speed.total_s)
    # a machine running the kernel at twice its reference time halves to reference speed
    assert measure.factor(2 * measure.REFERENCE_KERNEL_S * 4, 4) == pytest.approx(0.5)


def test_at_reference_scales_each_stretch_by_the_samples_around_it():
    r = measure.REFERENCE_KERNEL_S
    speed = measure.Speed()
    speed.ends, speed.times = [1.0, 3.0], [r, 2 * r]  # reference speed, then half speed
    speed.total_s, speed.calls = 3 * r, 2
    assert speed.at_reference(1.0, 2.0) == pytest.approx(2 / 3)
    # the second sample's own time is left out; after it only that sample counts
    assert speed.at_reference(1.0, 3.5) == pytest.approx((2.0 - 2 * r) * 2 / 3 + 0.5 * 0.5)
    assert speed.at_reference(0.5, 0.75) == pytest.approx(0.25)  # before any sample


def test_merge_counters_sums_counts_and_keeps_maxima():
    merged = measure.merge_counters(
        [{"tension.nodes": 3, "tension.max_degree": 4}, {"tension.nodes": 5, "tension.max_degree": 2}]
    )
    assert merged == {"tension.nodes": 8, "tension.max_degree": 4}


def test_tracer_records_parents_and_op_ids():
    tr = worker.Tracer()
    with tr.span("op", "x"):
        assert tr.call("inner", "x", lambda a: a + 1, 1) == 2
    assert [s[0] for s in tr.spans] == ["op", "inner"]
    assert tr.spans[1][3] == 0 and tr.spans[0][3] is None
    assert all(s[4] == "x" and s[2] >= s[1] for s in tr.spans)
    assert worker.NoTrace.call("inner", "x", lambda a: a * 3, 2) == 6


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_of_benchmark_json(trace, kind):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *config["command"][1:], "--workload", "cli-cold", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in config[kind]
    }
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_refuses_without_sources(tmp_path):

    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True,
    )
    assert proc.returncode != 0 and proc.stdout == ""
