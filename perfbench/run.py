#!/usr/bin/env python3
"""Benchmark of slitbound: cold CLI sessions, a lambda0 scan and the 4f
frame pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  See README.md
for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import numpy as np

import hostspeed
import inputs
import oracle
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PY = sys.executable

WORKLOADS = ("cli-session", "lambda0-scan", "frame-pipeline")
MIN_OPS = 40          # so that op_p75_ms has ten samples beyond it
SETUP_PROBES = 5
INTERP_PROBES = 5
IMPORT_PROBES = 3
CLI_COMMANDS = ("minstate", "lanczos", "lpbound", "reanalyze", "simulate", "estimate")
# per-layer metrics from the traced spans: median self time per call of the
# span the name starts with, over every traced call in the run ...
SELF_TIME_METRICS = (
    "cli.main.self_ms", "concentration.lp_lambda0.ms", "reanalysis.reanalyze_products.self_ms",
    "diffraction.theory_trace.self_ms", "diffraction.synthesize_frame.ms",
    "diffraction.normalize_frame.ms", "diffraction.gamma_trace.ms",
    "special.eval_lanczos_momentum_density.ms", "core.min_uncertainty_coefficients.ms",
    "core.momentum_moments.ms", "core.eval_momentum_wavefunction.ms", "reports.write_csv.ms",
    "reports.write_report.ms", "reports.read_frame_csv.ms",
)
# ... and calls, failed calls or a recorded quantity per traced operation of
# the workload itself
PER_OP_METRICS = {
    "concentration.lp_lambda0.calls": "count/op", "concentration.lp_lambda0.failed": "count/op",
    "reanalysis.reanalyze_products.failed": "count/op",
    "special.eval_lanczos_momentum_density.points": "count/op", "reports.write_csv.bytes": "B/op",
}


def child_env() -> dict:
    """Environment of every child: the package from src/, and one BLAS thread.
    The program's one BLAS-heavy call, a 400x400 eigh, is no faster with two
    threads here, and a second busy thread ties its timing to the other CPU."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class Child:
    """posix_spawn + wait4: wall time, exit code and peak RSS of one child."""

    def __init__(self, env: dict, log_path: str):
        self.env = env
        self.log_path = log_path

    def run(self, argv: list[str]) -> tuple[float, int, float]:
        actions = [(os.POSIX_SPAWN_OPEN, fd, self.log_path,
                    os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644) for fd in (1, 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(PY, [PY, *argv], self.env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0

    def log(self) -> str:
        with open(self.log_path, errors="replace") as fh:
            return fh.read()


def percentile_ms(latencies: list[float]) -> tuple[float, float]:
    """(median, 75th percentile) in ms."""
    ms = [1e3 * v for v in latencies]
    return statistics.median(ms), statistics.quantiles(ms, n=4)[2]


# ---------------------------------------------------------------- cli-session

def cli_rounds(child: Child, seed: int, seconds: float, work: str, mode: str,
               min_ops: int = MIN_OPS) -> dict:
    """Whole rounds of the six cold commands.  ``mode`` is 'plain', 'traced'
    (every round under traced_cli.py) or 'alternate' (odd rounds traced, and
    an even number of rounds in all)."""
    rng = np.random.default_rng([seed, 3])
    ops, spans = [], tracing.empty()
    start = time.perf_counter()
    index = 0
    while True:
        done = time.perf_counter() - start >= seconds and len(ops) >= min_ops
        if done and (mode != "alternate" or index % 2 == 0):
            break
        traced = mode == "traced" or (mode == "alternate" and index % 2 == 1)
        out = os.path.join(work, f"round-{index:03d}")
        for name, argv in inputs.cli_round(rng, out):
            spans_path = os.path.join(work, "spans.json")
            cmd = ([os.path.join(HERE, "traced_cli.py"), spans_path, "--", *argv] if traced
                   else ["-m", "slitbound.cli", *argv])
            probe_s = child.run(hostspeed.SPAWN_ARGV)[0]
            wall, code, rss = child.run(cmd)
            ops.append({"command": name, "round": out, "latency_s": wall, "probe_s": probe_s,
                        "code": code, "rss_mb": rss, "traced": traced,
                        "error": None if code == 0 else child.log()[-500:]})
            if traced and os.path.exists(spans_path):
                with open(spans_path) as fh:
                    tracing.merge(spans, json.load(fh))
                os.unlink(spans_path)
        index += 1
    return {"ops": ops, "elapsed_s": time.perf_counter() - start, "spans": spans}


def cli_round_problems(out: str) -> list[str]:
    def report(name):
        with open(os.path.join(out, f"{name}_report.json")) as fh:
            return json.load(fh)

    bad = []
    try:
        minstate, lanczos, lpbound, reanalysis, estimate = (
            report(n) for n in ("minstate", "lanczos", "lpbound", "reanalysis", "estimate"))
        report("simulate")
    except (OSError, ValueError) as exc:
        return [f"{out}: report missing or unparsable: {exc}"]
    bad += oracle.minstate_problems(minstate)
    if abs(lanczos["results"]["gamma"] - oracle.GAMMA_EXACT) > 1e-12:
        bad.append(f"lanczos gamma {lanczos['results']['gamma']!r} against {oracle.GAMMA_EXACT!r}")
    rows = lpbound["results"]["rows"]
    if [r["xi"] for r in rows] != [float(x) for x in inputs.LPBOUND_XI]:
        bad.append("lpbound rows do not follow --xi")
    pairs = [(r["xi"], r["lambda0"], None) for r in rows]
    rows = reanalysis["results"]["rows"]
    for row, a in zip(rows, inputs.REANALYZE_A):
        if abs(row["xi"] - float(a) / (2 * np.pi)) > 1e-15:
            bad.append(f"reanalysis xi {row['xi']!r} for a = {a}")
    pairs += [(r["xi"], r["lambda0"], r["well_defined"]) for r in rows]
    bad += oracle.lambda0_problems(pairs)
    bad += oracle.frame_problems(os.path.join(out, "frame.csv"), os.path.join(out, "trace.csv"),
                                 estimate, inputs.frame_spec_meters(inputs.README_SIMULATE))
    return [f"{out}: {b}" for b in bad]


def cli_problems(ops: list[dict]) -> list[str]:
    bad = [f"{op['command']} exited {op['code']}: {op['error']}" for op in ops if op["code"]]
    for out in dict.fromkeys(op["round"] for op in ops):
        bad += cli_round_problems(out)
    return bad


# ------------------------------------------------------- in-process workloads

def worker_run(child: Child, workload: str, seed: int, seconds: float, work: str,
               trace: bool, min_ops: int = MIN_OPS) -> dict:
    os.makedirs(work, exist_ok=True)
    config = {"workload": workload, "seed": seed, "seconds": seconds, "min_ops": min_ops,
              "trace": trace, "out": work}
    config_path = os.path.join(work, "config.json")
    result_path = os.path.join(work, "result.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    _, code, rss = child.run([os.path.join(HERE, "worker.py"), config_path, result_path])
    if code != 0:
        raise RuntimeError(f"worker exited {code}:\n{child.log()[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["rss_mb"] = rss
    return result


def lambda0_problems(ops: list[dict]) -> list[str]:
    bad, pairs = [], []
    for op in ops:
        if op["failed"]:
            if op["xi_in"] < inputs.FAULT_RANGE[0]:
                bad.append(f"{op['kind']}({op['xi_in']!r}) failed outside the known fault: "
                           f"{op['error'] or op['out']}")
            continue
        out = op["out"]
        if abs(out["xi"] - op["xi_in"]) > 1e-12 * op["xi_in"]:
            bad.append(f"{op['kind']} returned xi {out['xi']!r} for {op['xi_in']!r}")
        pairs.append((out["xi"], out["lambda0"], out["well_defined"]))
    return bad + oracle.lambda0_problems(pairs)


def frame_problems(ops: list[dict]) -> list[str]:
    bad = []
    for op in ops:
        if op["failed"]:
            bad.append(f"{op['dir']}: {op['error']}")
            continue
        with open(os.path.join(op["dir"], "estimate_report.json")) as fh:
            report = json.load(fh)
        found = oracle.frame_problems(os.path.join(op["dir"], "frame.csv"),
                                      os.path.join(op["dir"], "trace.csv"), report,
                                      inputs.frame_spec_meters(op["spec"]))
        bad += [f"{op['dir']}: {b}" for b in found]
    return bad


# ----------------------------------------------------------------- per layer

def import_ms(stderr: str, package: str) -> float:
    """Cumulative import time of the outermost modules of ``package``."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        module = name.strip()
        if module == package or module.startswith(package + "."):
            entries.append((len(name) - len(name.lstrip()), int(cumulative)))
    if not entries:
        return 0.0
    top = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == top) / 1e3


def layer_metrics(child: Child, workload: str, seed: int, ops: list[dict], spans: dict,
                  work: str) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, plus the check results of the
    CLI probe round run for workloads that do not start the CLI."""
    metrics, bad = {}, []

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    put("interp.start_ms", 1e3 * statistics.median(
        child.run(["-c", "pass"])[0] for _ in range(INTERP_PROBES)), "ms")
    imports = {"slitbound_cli": "slitbound", "scipy": "scipy", "jsonschema": "jsonschema"}
    samples = {k: [] for k in imports}
    for _ in range(IMPORT_PROBES):
        child.run(["-X", "importtime", "-c", "import slitbound.cli"])
        log = child.log()
        for key, package in imports.items():
            samples[key].append(import_ms(log, package))
    for key, values in samples.items():
        put(f"import.{key}_ms", statistics.median(values), "ms")

    traced_ops = [op for op in ops if op["traced"]]
    plain_ops = [op for op in ops if not op["traced"]]
    cli_ops = traced_ops if workload == "cli-session" else []
    all_spans = tracing.empty()
    tracing.merge(all_spans, spans)
    if workload != "cli-session":
        # one traced cold round for the CLI layers this workload never calls
        probe = cli_rounds(child, seed, 0.0, os.path.join(work, "probe"), "traced", min_ops=1)
        cli_ops = probe["ops"]
        bad += cli_problems(cli_ops)
        tracing.merge(all_spans, probe["spans"])
    for command in CLI_COMMANDS:
        walls = [op["latency_s"] for op in cli_ops if op["command"] == command]
        put(f"cli.{command}_ms", 1e3 * statistics.median(walls), "ms")

    for name in SELF_TIME_METRICS:
        times = all_spans["self_s"].get(name.rsplit(".", 1)[0], [])
        put(name, 1e3 * statistics.median(times) if times else 0.0, "ms")
    per_op = max(len(traced_ops), 1)
    for name, unit in PER_OP_METRICS.items():
        span, kind = name.rsplit(".", 1)
        count = (len(spans["self_s"].get(span, [])) if kind == "calls"
                 else spans["failed"].get(span, 0) if kind == "failed"
                 else spans["quantities"].get(name, 0))
        put(name, count / per_op, unit)
    traced_mean = statistics.fmean(op["latency_s"] for op in traced_ops)
    plain_mean = statistics.fmean(op["latency_s"] for op in plain_ops)
    put("trace.overhead_ms_per_op", 1e3 * (traced_mean - plain_mean), "ms")
    return metrics, bad


# ---------------------------------------------------------------- end to end

def end_to_end(workload: str, setup: list[float], setup_probes: list[float], ops: list[dict],
               result: dict) -> dict:
    """End-to-end metrics from times scaled to the reference host speed
    (hostspeed.py).  The wall-time figures go to standard error."""
    reference = (hostspeed.SPAWN_REFERENCE_S if workload == "cli-session"
                 else hostspeed.PROBES[workload].REFERENCE_S)
    walls = [op["latency_s"] for op in ops]
    probes = [op["probe_s"] for op in ops]
    latencies = hostspeed.scaled(walls, probes, reference)
    setup_s = hostspeed.scaled(setup, setup_probes, hostspeed.SPAWN_REFERENCE_S)
    p50, p75 = percentile_ms(latencies)
    wall_p50, wall_p75 = percentile_ms(walls)
    print(f"perfbench: wall time: setup_s {statistics.median(setup):.4f}, "
          f"ops_per_s {len(ops) / result['elapsed_s']:.4f} (probes included), "
          f"op_p50_ms {wall_p50:.2f}, op_p75_ms {wall_p75:.2f}; host speed "
          f"{reference / statistics.median(probes):.3f} of the reference", file=sys.stderr)
    return {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "ops_per_s": {"value": len(ops) / sum(latencies), "unit": "1/s"},
        "op_p50_ms": {"value": p50, "unit": "ms"},
        "op_p75_ms": {"value": p75, "unit": "ms"},
        "peak_rss_mb": {"value": result["rss_mb"], "unit": "MB"},
    }


# ----------------------------------------------------------------------- main

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "slitbound", "cli.py")):
        print(f"perfbench: no slitbound sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: str) -> int:
    child = Child(child_env(), os.path.join(work, "child.log"))
    trace = bool(args.trace)

    setup, setup_probes = [], []
    for _ in range(1 if trace else SETUP_PROBES):
        setup_probes.append(child.run(hostspeed.SPAWN_ARGV)[0])
        wall, code, _ = child.run(["-c", "import slitbound.cli"])
        if code != 0:
            print(f"perfbench: importing slitbound.cli failed:\n{child.log()}", file=sys.stderr)
            return 3
        setup.append(wall)

    if args.workload == "cli-session":
        result = cli_rounds(child, args.seed, args.seconds, work,
                            "alternate" if trace else "plain")
        result["rss_mb"] = max(op["rss_mb"] for op in result["ops"])
        problems = cli_problems(result["ops"])
    else:
        result = worker_run(child, args.workload, args.seed, args.seconds, work, trace)
        check = lambda0_problems if args.workload == "lambda0-scan" else frame_problems
        problems = check(result["ops"])
    ops = result["ops"]

    if trace:
        metrics, more = layer_metrics(child, args.workload, args.seed, ops, result["spans"], work)
        problems += more
    else:
        metrics = end_to_end(args.workload, setup, setup_probes, ops, result)
    failed = sum(1 for op in ops if op.get("failed") or op.get("code"))
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
