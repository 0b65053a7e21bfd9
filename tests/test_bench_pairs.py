"""tests/bench_pairs.py: which side runs first flips each pair, wins are
counted in each metric's better direction, and a checkout inside this one is
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
