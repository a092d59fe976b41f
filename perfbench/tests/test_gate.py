"""The output gate: digests, structural checks and failure counting."""

from pathlib import Path

import pytest

import inputs
import run
import workloads


@pytest.fixture
def made(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return inputs.write_inputs(inputs.DEFAULT_SEED, run.OUT / "inputs")


def flip_one_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def test_one_byte_change_in_an_output_file_is_a_failed_op(made):
    wl = workloads.make("cli", made, run.OUT, run.load_golden())
    analyze = wl.commands[0]
    seconds, rc, stdout, stderr = wl.invoke(analyze)
    assert wl.check(analyze, rc, stdout, stderr) == []

    flip_one_byte(analyze.out_dir / "analysis.csv")
    problems = wl.check(analyze, rc, stdout, stderr)
    assert problems == ["cli[analyze]: analysis.csv differs from "
                        "golden.json's output"]

    ok = workloads.Outcome(seconds, [])
    bad = workloads.Outcome(seconds, problems)
    assert run.tally([ok, bad, ok])[:2] == (3, 1)


def test_other_seeds_must_repeat_the_first_output(made):
    wl = workloads.make("cli", made, run.OUT, None)
    analyze = wl.commands[0]
    assert wl.run(0).problems == []
    seconds, rc, stdout, stderr = wl.invoke(analyze)
    flip_one_byte(analyze.out_dir / "analysis.csv")
    assert wl.check(analyze, rc, stdout, stderr) == [
        "cli[analyze]: analysis.csv differs from the first run's output"]


def test_nonzero_exit_is_a_failed_op(made):
    wl = workloads.make("cli", made, run.OUT, run.load_golden())
    problems = wl.check(wl.commands[0], 1, "", "error: boom")
    assert len(problems) == 1 and "exit 1" in problems[0]


def test_benchmark_json_names_only_traced_spans():
    import json
    import spans
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    known = spans.known_names()
    derived = {"offsets.compared_ratio", "traced.op_vs_ref", "trace.spans"}
    for m in bench["per_layer"]:
        base, _, stat = m["name"].rpartition(".")
        assert m["name"] in derived or (base in known and stat in spans.STATS)
