"""tools/bench_pairs.py against stand-in checkouts whose perfbench/run.py
prints fixed metrics at once."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# Prints an env line and the final JSON line of a run: every end-to-end
# metric of BENCHMARK.json reads the checkout's speed.txt plus the seed.
_STAND_IN = '''import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
speed = float(Path("speed.txt").read_text())
names = [m["name"] for m in json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]]
print("env " + json.dumps({"nproc": 2}))
print("op_ms_p50 = ...")
correct = speed > 0
metrics = {name: {"value": speed + seed, "unit": "ms"} for name in names}
print(json.dumps({"correct": correct, "attempted": 3, "failed": 0, "metrics": metrics}))
sys.exit(0 if correct else 1)
'''


def _checkout(path: Path, speed: float) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(_STAND_IN)
    (path / "perfbench" / "reference.json").write_text('{"train_k3": {"losses": [1.0]}}\n')
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    (path / "speed.txt").write_text(str(speed))
    return path


def _run(tmp_path, parent_speed, change_speed, *extra):
    out = tmp_path / "BENCH_x.json"
    argv = [
        "--parent", str(_checkout(tmp_path / "parent", parent_speed)),
        "--change", str(_checkout(tmp_path / "change", change_speed)),
        "--out", str(out),
        *extra,
    ]
    return bench_pairs.main(argv), out


def test_parse_seeds():
    assert bench_pairs.parse_seeds("5-7,9") == [5, 6, 7, 9]
    assert bench_pairs.parse_seeds("11") == [11]


def test_record_of_alternating_pairs(tmp_path, capsys):
    code, out = _run(
        tmp_path, 100.0, 90.0, "--workload", "train_k6", "--seeds", "1-3", "--claim", "faster"
    )
    assert code == 0
    record = json.loads(out.read_text())
    assert record["claim"] == "faster" and record["host"] == {"nproc": 2}
    assert record["parent_commit"] is None and record["change_commit"] is None
    # The run length is BENCHMARK.json's, not the tool's.
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert f"--seconds {seconds:g} " in record["command"]
    workload = record["workloads"]["train_k6"]
    assert workload["seeds"] == [1, 2, 3] and workload["all_correct"]
    assert [pair["first"] for pair in workload["pairs"]] == ["parent", "change", "parent"]
    p50 = workload["summary"]["op_ms_p50"]
    assert p50["parent_median"] == 102.0 and p50["change_median"] == 92.0
    assert p50["parent_quartiles"] == [101.0, 103.0]
    assert p50["change_better_pairs"] == 3 and p50["pairs"] == 3
    assert p50["median_change_ratio"] == pytest.approx(92.0 / 102.0)
    assert p50["shown"] and not workload["summary"]["images_per_s"]["shown"]
    closing = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert closing["op_ms_p50"].endswith("; gain shown)")
    assert closing["images_per_s"].endswith("; gain not shown)")
    # A metric that is better higher was lower on the change in every pair.
    assert workload["summary"]["images_per_s"]["change_better_pairs"] == 0
    final = json.loads(workload["pairs"][0]["change"]["final_line"])
    assert final["metrics"]["op_ms_p50"]["value"] == 91.0
    assert workload["pairs"][0]["change"]["env_line"] == 'env {"nproc": 2}'


def _summary(parent, change, better="lower"):
    pairs = [
        {side: {"metrics": {"t": {"value": value}}} for side, value in zip(bench_pairs.SIDES, pair)}
        for pair in zip(parent, change)
    ]
    return bench_pairs.summarize(pairs, [{"name": "t", "better": better}])["t"]


@pytest.mark.parametrize(
    "parent, change, better, won, shown",
    [
        # Won 10 of 10, and the gap of 10 exceeds the parent's 100.75-103.25.
        ([100, 101, 102, 103, 104] * 2, [90, 91, 92, 93, 94] * 2, "lower", 10, True),
        # Won 9 of 10, but the gap of 2 lies inside the parent's 97.75-106.25.
        (
            [96, 97, 98, 99, 100, 101, 102, 106, 107, 108],
            [95, 96, 97, 98, 98, 99, 100, 105, 106, 110],
            "lower",
            9,
            False,
        ),
        # A tie counts for neither side: with two, 8 of 10 is too few,
        # however wide the gap.
        ([10, 10, 10, 11, 11, 11, 12, 12, 12, 13], [10, 10, 20] + [30] * 7, "higher", 8, False),
    ],
    ids=["shown", "inside_quartiles", "ties"],
)
def test_shown_verdict(parent, change, better, won, shown):
    entry = _summary(parent, change, better)
    assert entry["change_better_pairs"] == won and entry["pairs"] == 10
    assert entry["shown"] is shown


def test_second_workload_joins_the_record(tmp_path):
    _run(tmp_path, 100.0, 90.0, "--workload", "train_k6", "--seeds", "1", "--claim", "faster")
    shutil.rmtree(tmp_path / "parent")
    shutil.rmtree(tmp_path / "change")
    code, out = _run(tmp_path, 100.0, 100.0, "--workload", "eval_k3", "--seeds", "4-5")
    record = json.loads(out.read_text())
    assert code == 0 and record["claim"] == "faster"
    assert set(record["workloads"]) == {"train_k6", "eval_k3"}
    assert record["workloads"]["eval_k3"]["summary"]["op_ms_p50"]["change_better_pairs"] == 0


def test_failed_run_is_recorded(tmp_path):
    code, out = _run(tmp_path, 100.0, -1.0, "--workload", "train_k3", "--seeds", "1-2")
    assert code == 1
    workload = json.loads(out.read_text())["workloads"]["train_k3"]
    assert not workload["all_correct"]
    assert workload["pairs"][1]["change"]["returncode"] == 1


def _edit(checkout: Path, name: str) -> None:
    path = checkout / "perfbench" / name
    path.parent.mkdir(exist_ok=True)
    with path.open("a") as handle:
        handle.write("# edited\n")


@pytest.mark.parametrize("edited", ["run.py", "reference.json", "data/extra.txt"])
def test_differing_benchmark_files_run_nothing(tmp_path, edited):
    parent = _checkout(tmp_path / "parent", 100.0)
    change = _checkout(tmp_path / "change", 90.0)
    _edit(change, edited)
    out = tmp_path / "BENCH_x.json"
    argv = ["--parent", str(parent), "--change", str(change), "--out", str(out)]
    assert bench_pairs.main(argv + ["--workload", "train_k3", "--seeds", "1"]) == 2
    assert not out.exists()


def test_bytecode_caches_are_not_compared(tmp_path):
    parent = _checkout(tmp_path / "parent", 100.0)
    change = _checkout(tmp_path / "change", 90.0)
    _edit(change, "__pycache__/run.cpython-311.pyc")
    out = tmp_path / "BENCH_x.json"
    argv = ["--parent", str(parent), "--change", str(change), "--out", str(out)]
    assert bench_pairs.main(argv + ["--workload", "train_k3", "--seeds", "1"]) == 0
    assert out.exists()
