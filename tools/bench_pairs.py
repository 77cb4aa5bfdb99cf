"""Run paired benchmark runs of two checkouts and write a BENCH_*.json record.

    python3 tools/bench_pairs.py --parent ../parent --change ../change \
        --workload train_k6 --seeds 9101-9110 --out BENCH_train_k6_x.json \
        --claim "train_k6 op_ms_p50 is lower: ..."

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0`` once in each checkout, one run at a time, on the pair's seed,
with N the ``run_seconds`` of ``BENCHMARK.json``. Pairs alternate which side
runs first (the parent on odd pairs), so a drift in host speed falls on both
sides alike. Both checkouts must hold the same ``BENCHMARK.json`` and the
same files under ``perfbench/`` (its reference data included; bytecode
caches aside), or nothing runs.

The record keeps, per workload, every run's ``env`` line and final JSON
line, and for each end-to-end metric of ``BENCHMARK.json`` both sides'
medians and quartiles (``statistics.quantiles(n=4)``, first and third),
the pairs the change won (strictly better in the metric's direction), the
change's median over the parent's, and whether a gain is ``shown``. It is
rewritten after every pair.
An existing record gains or replaces only the workload run; run the tool
once per workload with the same ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PROTOCOL = (
    "parent and change in side-by-side checkouts with identical perfbench/ and "
    "BENCHMARK.json; pairs alternate which side runs first (parent first on odd "
    "pairs); one run at a time; op times are scaled to the nominal host speed by "
    "perfbench/hostspeed.py; quartiles are statistics.quantiles(n=4); env_line and "
    "final_line are the lines the command printed"
)
COMMAND = (
    "python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds} --trace 0"
)
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"5-7,9"`` -> [5, 6, 7, 9]."""
    seeds = []
    for item in text.split(","):
        first, _, last = item.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def _revision(checkout: Path) -> str | None:
    """The checkout's commit, marked when its tracked files differ from it;
    None outside a git checkout."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(checkout), *args], capture_output=True, text=True
        )

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + (" with uncommitted changes" if dirty else "")


def _benchmark_files(checkout: Path) -> dict[str, bytes]:
    """``BENCHMARK.json`` and every file under ``perfbench/`` but Python's
    bytecode caches, by path relative to ``checkout``."""
    files = [
        path
        for path in (checkout / "perfbench").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    ]
    files.append(checkout / "BENCHMARK.json")
    return {str(path.relative_to(checkout)): path.read_bytes() for path in files}


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float
) -> tuple[dict, dict | None]:
    """One benchmark run in ``checkout``: its return code, ``env`` line and
    final line (the JSON object), and that object parsed, or None."""
    command = COMMAND.format(workload=workload, seed=seed, seconds=seconds).split()
    command[0] = sys.executable
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    env_line = next((line for line in lines if line.startswith("env ")), None)
    final_line = lines[-1] if lines else ""
    try:
        result = json.loads(final_line)
    except json.JSONDecodeError:
        result = None
    run = {"returncode": done.returncode, "env_line": env_line, "final_line": final_line}
    return run, result


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Medians, quartiles and pairs won per end-to-end metric; ``pairs``
    holds each pair's parsed results under ``"parent"`` and ``"change"``.

    A gain is ``shown`` when the change won at least nine tenths of the
    pairs, a tie counting for neither side, and its median is better than
    the parent's by more than the parent's quartile spread (third minus
    first quartile)."""
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {
            side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES
        }
        won = sum(
            (new < old) if lower else (new > old)
            for old, new in zip(values["parent"], values["change"])
        )
        entry = {}
        for side in SIDES:
            entry[f"{side}_median"] = statistics.median(values[side])
            if len(pairs) > 1:
                first, _, third = statistics.quantiles(values[side], n=4)
            else:
                first = third = values[side][0]
            entry[f"{side}_quartiles"] = [first, third]
        parent_median, change_median = entry["parent_median"], entry["change_median"]
        first, third = entry["parent_quartiles"]
        gap = parent_median - change_median if lower else change_median - parent_median
        entry.update(
            change_better_pairs=won,
            pairs=len(pairs),
            median_change_ratio=change_median / parent_median if parent_median else None,
            shown=10 * won >= 9 * len(pairs) and gap > third - first,
        )
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 9101-9110")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_*.json to write")
    parser.add_argument("--claim", help="the record's claim; kept from --out when omitted")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if _benchmark_files(checkouts["parent"]) != _benchmark_files(checkouts["change"]):
        print("error: perfbench/ or BENCHMARK.json differ between the checkouts", file=sys.stderr)
        return 2
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.update(
        claim=args.claim if args.claim is not None else record.get("claim"),
        command=COMMAND.replace("{seconds}", f"{seconds:g}"),
        protocol=PROTOCOL,
        parent_commit=_revision(checkouts["parent"]),
        change_commit=_revision(checkouts["change"]),
    )
    record.setdefault("host", None)
    record.setdefault("workloads", {})

    pairs, results, all_correct = [], [], True
    for number, seed in enumerate(args.seeds, start=1):
        order = SIDES if number % 2 else SIDES[::-1]
        pair, parsed = {"seed": seed, "first": order[0]}, {}
        for side in order:
            pair[side], parsed[side] = run_once(checkouts[side], args.workload, seed, seconds)
            ok = pair[side]["returncode"] == 0 and (parsed[side] or {}).get("correct") is True
            all_correct &= ok
            print(f"pair {number} seed {seed} {side}: {'ok' if ok else 'FAILED'}", flush=True)
            if pair[side]["env_line"] and record["host"] is None:
                record["host"] = json.loads(pair[side]["env_line"].removeprefix("env "))
        pairs.append(pair)
        if all(parsed.get(side) and "metrics" in parsed[side] for side in SIDES):
            results.append(parsed)
        record["workloads"][args.workload] = {
            "seeds": args.seeds[:number],
            "all_correct": all_correct,
            "summary": summarize(results, metrics) if results else {},
            "pairs": pairs,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    for name, entry in record["workloads"][args.workload]["summary"].items():
        first, third = entry["parent_quartiles"]
        print(
            f"{name}: parent {entry['parent_median']:.4g} -> change {entry['change_median']:.4g}"
            f" (parent quartiles {first:.4g}-{third:.4g};"
            f" change better in {entry['change_better_pairs']} of {entry['pairs']};"
            f" gain {'shown' if entry['shown'] else 'not shown'})"
        )
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
