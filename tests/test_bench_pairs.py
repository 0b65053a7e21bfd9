"""tests/bench_pairs.py: which side runs first flips each pair, wins are
counted in each metric's better direction, each metric gets a verdict against
its bound, every workload asked for runs, and a checkout inside this one is
refused before anything runs."""

import pytest

import bench_pairs


def test_pairs_alternate_and_count_wins(tmp_path, capsys, monkeypatch):
    sides = {}
    for side in ("a", "b"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
        sides[side] = str((tmp_path / side).resolve())
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path / "elsewhere"))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout)
        faster = checkout == sides["b"]
        metrics = {name: {"value": 1.0, "unit": unit}
                   for name, unit, _ in bench_pairs.end_to_end_metrics()}
        metrics["ops_per_s"]["value"] = 110.0 if faster else 100.0 + len(calls)
        metrics["op_ms_p50"]["value"] = 9.0 if faster else 10.0
        return {"metrics": metrics, "failed": 0, "attempted": 5}

    assert bench_pairs.main([sides["a"], sides["b"], "--workload", "w", "--pairs", "3"],
                            run=fake_run) == 0
    assert calls == [sides["a"], sides["b"], sides["b"], sides["a"], sides["a"], sides["b"]]
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("pair ") for line in lines) == 6
    row = {line.split()[0]: line.split()[-1] for line in lines if not line.startswith("pair ")}
    assert row["ops_per_s"] == "3/3" and row["op_ms_p50"] == "3/3" and row["setup_s"] == "0/3"
    assert "parent failed ops: 0/15" in lines and "change failed ops: 0/15" in lines


def test_checkout_inside_this_one_is_refused():
    with pytest.raises(SystemExit, match="lies inside"):
        bench_pairs.checked_checkout(bench_pairs.ROOT + "/src")


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5]  # quartile distance 1.0, 1% of the median


@pytest.mark.parametrize("parent, change, better, found", [
    pytest.param(PARENT, [102.0, 98.0, 101.0, 99.0, 100.0], "lower", "within bound", id="same"),
    pytest.param(PARENT, [124.0, 123.0, 126.0, 124.5, 99.0], "lower", "within bound", id="inside_bound"),
    pytest.param(PARENT, [126.0, 127.0, 125.5, 128.0, 99.0], "lower", "worse", id="worse_lower"),
    pytest.param(PARENT, [74.0, 70.0, 101.0, 73.0, 72.0], "higher", "worse", id="worse_higher"),
    pytest.param([100.0, 150.0, 60.0, 130.0, 80.0], [100.0] * 5, "lower", "unresolved", id="wide_parent"),
    pytest.param([100.0, 150.0, 60.0, 130.0, 80.0], [59.0] * 5, "lower", "within bound",
                 id="wide_parent_every_change_run_better"),
    pytest.param([100.0, 150.0, 60.0, 130.0, 80.0], [151.0] * 5, "higher", "within bound",
                 id="wide_parent_every_change_run_better_higher"),
])
def test_verdict_reads_the_bound_as_a_share_of_the_parents_median(parent, change, better, found):
    assert bench_pairs.verdict(parent, change, better, 0.25) == found


@pytest.mark.parametrize("change, better, shown", [
    pytest.param([95.0] * 9 + [102.0], "lower", True, id="nine_of_ten"),
    pytest.param([95.0] * 8 + [102.0] * 2, "lower", False, id="eight_of_ten"),
    pytest.param([99.2] * 10, "lower", False, id="inside_the_quartiles"),
    pytest.param([95.0] * 10, "higher", False, id="wrong_direction"),
])
def test_gain_needs_nine_in_ten_pairs_and_a_median_beyond_the_quartiles(change, better, shown):
    parent = PARENT * 2
    assert bench_pairs.gain_shown(parent, change, better) is shown


def test_every_workload_runs_and_each_gets_a_verdict(tmp_path, capsys, monkeypatch):
    sides = []
    for side in ("a", "b"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
        sides.append(str((tmp_path / side).resolve()))
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path / "elsewhere"))
    workloads = []

    def fake_run(checkout, workload, seed, seconds):
        workloads.append(workload)
        slower = checkout == sides[1] and workload == "w2"
        metrics = {name: {"value": 1.0, "unit": unit} for name, unit, _ in bench_pairs.end_to_end_metrics()}
        metrics["op_ms_p50"]["value"] = 20.0 if slower else 10.0
        return {"metrics": metrics, "failed": 0, "attempted": 5}

    assert bench_pairs.main([*sides, "--workload", "w1", "--workload", "w2", "--pairs", "2"],
                            run=fake_run) == 0
    assert workloads == ["w1"] * 4 + ["w2"] * 4
    out = capsys.readouterr().out
    first, second = out.split("workload w2\n")
    assert first.startswith("workload w1\n")
    p50 = [line for part in (first, second) for line in part.splitlines() if line.startswith("op_ms_p50")]
    assert "within bound" in p50[0] and "worse" in p50[1]
    assert p50[1].split()[-2:] == ["no", "0/2"]  # no gain, no pair won
