"""Record interleaved pairs of benchmark runs of two commits.

    python tests/bench_pairs.py PARENT CHANGE --workload W --pairs P
        --seconds S --seed N --out FILE [--metric M]

Both commits are extracted by ``git archive`` into a temporary directory, and
``perfbench/run.py`` runs from each tree as the benchmark runs it, with
``PYTHONDONTWRITEBYTECODE=1`` so that every cold command compiles what it
imports.  Pair i uses seed N + i on both sides; the parent runs first in the
even pairs and the change in the odd ones.  The last line of each run is
parsed, and FILE is written in the schema of ``BENCH_34.json``: every run of
each end-to-end metric of ``BENCHMARK.json``, each side's median, inclusive
quartiles and minimum, the pairs the change wins, and a claim block for
metric M (op_p50_ms by default).  A claim is met when the change is better
in at least 9 of 10 pairs and its median beats the parent's by more than
the parent's interquartile range.  The record's ``what`` lists the subjects
of the commits from PARENT to CHANGE.  This is the paired, repeated design of
Kalibera & Jones, "Rigorous Benchmarking in Reasonable Time" (ISMM 2013).

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
# each end-to-end metric's unit and whether it is better lower or higher
END_TO_END = {m["name"]: (m["unit"], m["better"])
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
WIN_SHARE = 0.9


def parse_run(stdout: str) -> dict:
    """The JSON object of run.py's last line of output."""
    return json.loads(stdout.strip().splitlines()[-1])


def summarize_metric(parent_runs: list, change_runs: list, unit: str, better: str) -> dict:
    """One metric's block: both sides' runs, the median, inclusive quartiles
    and minimum of each side, the pairs the change wins and the change's
    median over the parent's."""
    def side(runs):
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
                "min": min(runs)}

    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent_runs, change_runs))
    parent, change = side(parent_runs), side(change_runs)
    return {"unit": unit, "parent_runs": parent_runs, "change_runs": change_runs,
            "parent": parent, "change": change,
            "change_better_in_pairs": f"{wins}/{len(parent_runs)}",
            "change_over_parent": round(change["median"] / parent["median"], 4)}


def summarize(parent: list, change: list) -> dict:
    """The workload block from the parsed runs of each side, pair by pair:
    whether every run was correct with no failed operation, and a block per
    end-to-end metric with its values rounded to 6 decimals."""
    def values(runs, name):
        return [round(run["metrics"][name]["value"], 6) for run in runs]

    return {"every_run_correct_with_0_failed":
            all(run["correct"] and run["failed"] == 0 for run in parent + change),
            "metrics": {name: summarize_metric(values(parent, name), values(change, name),
                                               unit, better)
                        for name, (unit, better) in END_TO_END.items()}}


def claim(workload: str, metric: str, block: dict) -> dict:
    """The claim block of a metric's summary: a gain is met when the change
    wins at least 9 of 10 pairs and its median is better than the parent's
    by more than the parent's interquartile range."""
    lower = END_TO_END[metric][1] == "lower"
    p, c = block["parent"]["median"], block["change"]["median"]
    iqr = round(block["parent"]["q3"] - block["parent"]["q1"], 6)
    wins, pairs = map(int, block["change_better_in_pairs"].split("/"))
    return {"workload": workload, "metric": metric, "parent_median": p, "change_median": c,
            "change_better_in_pairs": block["change_better_in_pairs"], "parent_iqr": iqr,
            "gain": round(p / c if lower else c / p, 4),
            "met": wins >= WIN_SHARE * pairs and (p - c if lower else c - p) > iqr}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(commit: str, tree: pathlib.Path) -> None:
    """The commit's files, as ``git archive`` gives them, under tree."""
    tree.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def run(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"run.py exited {done.returncode} in {tree.name}:\n{done.stderr}")
    return parse_run(done.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--metric", default="op_p50_ms", choices=sorted(END_TO_END))
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the quartiles")

    shas = {side: git("rev-parse", "--verify", getattr(args, side) + "^{commit}")
            for side in ("parent", "change")}
    seeds = [args.seed + i for i in range(args.pairs)]
    first = ["parent" if i % 2 == 0 else "change" for i in range(args.pairs)]
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="slitbound-pairs-") as tmp:
        trees = {side: pathlib.Path(tmp) / side for side in shas}
        for side, tree in trees.items():
            extract(shas[side], tree)
        for seed, lead in zip(seeds, first):
            for side in (lead, "change" if lead == "parent" else "parent"):
                runs[side].append(run(trees[side], args.workload, seed, args.seconds))
                print(f"seed {seed} {side}: {runs[side][-1]['metrics'][args.metric]['value']:.6g}",
                      file=sys.stderr)

    block = {"seeds": seeds, "first": first, **summarize(runs["parent"], runs["change"])}
    record = {
        "what": "; ".join(git("log", "--reverse", "--format=%s",
                              f"{shas['parent']}..{shas['change']}").splitlines()),
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed N "
                   f"--seconds {args.seconds:g} --trace 0",
        "git": shas,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "host": f"{platform.system()} {platform.machine()}; times are perfbench's "
                "host-speed-scaled figures",
        "bytecode": "PYTHONDONTWRITEBYTECODE=1 for every run and its children and no "
                    "__pycache__ in either tree, so every cold command compiled the modules "
                    "it imported",
        "protocol": f"{args.pairs} interleaved pairs of {args.workload} from git archives of "
                    f"both commits, seeds {seeds[0]}-{seeds[-1]}, one seed per pair shared by "
                    "both sides, alternating which side runs first (parent first on the first "
                    "pair); quartiles by the inclusive method over the runs of a side",
        "claim": claim(args.workload, args.metric, block["metrics"][args.metric]),
        "workloads": {args.workload: block},
    }
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    c = record["claim"]
    print(f"{args.metric}: parent {c['parent_median']}, change {c['change_median']}, "
          f"change better in {c['change_better_in_pairs']}, met {c['met']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
