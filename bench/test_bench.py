"""Self-tests of the benchmark itself (not of rpsdm). From the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import importlib
import json
import shutil
import tempfile
from pathlib import Path

import pytest

import run
import spans


def swapped_attributes() -> dict:
    """Current value of every attribute the tracer swaps."""
    current = {}
    for module_name, attr, _, _ in spans.TARGETS:
        current[(module_name, attr)] = getattr(importlib.import_module(module_name), attr)
    current[("rpsdm.metrics", "np")] = importlib.import_module("rpsdm.metrics").np
    return current


@pytest.fixture(scope="module")
def cli():
    run._pin_blas_threads()
    return run._load_program()


@pytest.fixture()
def workdir():
    path = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=run.ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _traced_job(cli, workdir, workload="ber-n128"):
    runner = run.JobRunner(cli.main, workload, 1, workdir)
    tracer = spans.Tracer()
    with tracer:
        during = swapped_attributes()
        runner.run(0, tracer.root("cli.main", 0))
    return runner, tracer, during


def test_traced_run_restores_every_attribute(cli, workdir):
    before = swapped_attributes()
    runner, tracer, during = _traced_job(cli, workdir)
    after = swapped_attributes()
    assert not runner.failures
    assert all(during[key] is not before[key] for key in before)
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(value, "__wrapped__") for value in after.values())
    # an untraced job afterwards records nothing
    count = len(tracer.spans)
    run.JobRunner(cli.main, "ber-n128", 1, workdir).run(1)
    assert len(tracer.spans) == count


def test_self_times_add_up_to_the_traced_job_wall(cli, workdir):
    _, tracer, _ = _traced_job(cli, workdir)
    (root,) = [s for s in tracer.spans if s.name == "cli.main"]
    self_of = spans.self_times(tracer.spans)
    layers = {s.layer for s in tracer.spans}
    assert {"cli", "metrics", "transforms", "ramanujan", "number_theory",
            "channel", "detection"} <= layers
    assert sum(self_of.values()) == pytest.approx(root.duration, rel=1e-9)
    assert all(v >= -1e-9 for v in self_of.values())


def test_flipped_output_byte_is_caught(cli, workdir):
    out = workdir / "job.csv"
    argv = run.job_argv("ber-n128", 1, 0, str(out))
    assert run.run_job(cli.main, argv)[0] == 0
    expected = run.recorded_digest(run.load_digests(), "ber-n128", 1, 0)
    assert expected is not None
    assert run.check_output(out, argv, expected) == []
    data = bytearray(out.read_bytes())
    data[len(data) // 2] ^= 0x01
    out.write_bytes(bytes(data))
    assert run.check_output(out, argv, expected)


def test_ccdf_invariant_catches_an_increasing_curve(cli, workdir):
    out = workdir / "job.csv"
    argv = run.job_argv("ccdf-mixed", 99, 0, str(out))
    assert run.run_job(cli.main, argv)[0] == 0
    assert run.check_output(out, argv, None) == []
    lines = out.read_text().split("\n")
    fields = lines[-2].split(",")  # last threshold of the last curve
    fields[3] = "0.5"
    lines[-2] = ",".join(fields)
    out.write_text("\n".join(lines))
    assert any("increases" in p for p in run.check_output(out, argv, None))


def test_seeds_give_different_inputs():
    for workload in run.WORKLOADS:
        one = [run.job_argv(workload, 1, j, "o") for j in range(16)]
        two = [run.job_argv(workload, 2, j, "o") for j in range(16)]
        assert one == [run.job_argv(workload, 1, j, "o") for j in range(16)]
        assert all(a != b for a, b in zip(one, two))
        assert len({tuple(a) for a in one}) == len(one)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    for n in (11, 25, 250):
        times = [float(i) for i in range(n)][::-1]
        value, pct = run.tail(times)
        assert pct == 100.0 * (n - 10) / n
        assert sum(t > value for t in times) == run.TAIL_BEYOND
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_missing_trace_target_fails_and_restores(cli, monkeypatch):
    before = swapped_attributes()
    monkeypatch.setattr(spans, "TARGETS", (*spans.TARGETS, ("rpsdm.metrics", "gone", "x.y", None)))
    with pytest.raises(AttributeError):
        with spans.Tracer():
            pass
    monkeypatch.undo()
    assert all(value is before[key] for key, value in swapped_attributes().items())


def test_metric_names_match_benchmark_json(cli, workdir):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e, _ = run.end_to_end(run.JobRunner(cli.main, "ber-n128", 1, workdir),
                            [0.1] * 20, [0.2] * 3, 50.0)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    _, tracer, _ = _traced_job(cli, workdir)
    layer, _ = run.per_layer("ber-n128", tracer.spans, 1, 0.0)
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**e2e, **layer}.items())
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])
