#!/usr/bin/env python3
"""Short self-check of the benchmark (about 50 seconds; not part of the test
suite).

    python3 perfbench/selfcheck.py

0. Scaling by the host-speed probes does what hostspeed.py says.
1. The reference mathematics in oracle.py agrees with direct quadrature and
   with the literature value of Si(2*pi).
2. The output checks reject outputs that are wrong by a little.
3. One brief pass of each workload runs and passes its checks, and run.py
   prints exactly the metrics BENCHMARK.json names.
4. run.py exits non-zero, printing no result, when the sources are absent.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

import hostspeed
import inputs
import oracle
import run

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def check_oracle() -> None:
    expect(abs(oracle.SI_2PI - oracle.SI_2PI_LITERATURE) < 1e-15, "Si(2pi) matches the literature")
    # closed-form bracket against the Fourier integral of the truncated sinc
    t, w = np.polynomial.legendre.leggauss(400)
    t, w = np.pi * t, np.pi * w
    for u in (0.0, 0.7, 3.0, 17.5, 240.0):
        direct = float(np.sum(w * np.sinc(t / np.pi) * np.cos(u * t / np.pi)))
        expect(abs(direct - float(oracle.momentum_bracket(u))) < 1e-12,
               f"Si bracket equals the Fourier integral at u={u}")
    expect(abs(oracle.theory_gamma(20000.0) - oracle.GAMMA_EXACT) < 3e-5,
           "band second moment tends to gamma")
    # constant-trial quotient against a direct double integral of the kernel
    x, wx = np.polynomial.legendre.leggauss(300)
    for xi in (0.179, 1.0, 6.0):
        c = np.pi * xi / 2.0
        d = x[:, None] - x[None, :]
        kernel = np.where(d == 0, c / np.pi, np.sin(c * d) / (np.pi * np.where(d == 0, 1, d)))
        direct = 0.5 * float(wx @ kernel @ wx)
        expect(abs(direct - oracle.constant_trial_quotient(xi)) < 1e-10,
               f"constant-trial quotient by double quadrature at xi={xi}")


def check_scaling() -> None:
    walls = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    expect(hostspeed.scaled(walls, [0.5] * 6, 0.5) == walls,
           "times are unchanged when every probe takes the reference time")
    slow = hostspeed.scaled(walls, [0.5, 0.5, 0.5, 1.0, 1.0, 1.0], 0.5)
    expect(slow[:2] == walls[:2] and slow[-2:] == [2.5, 3.0],
           "times are halved where the probes around them take twice the reference")
    probe = hostspeed.PROBES["lambda0-scan"]()
    expect(0 < probe() < 1.0, "a probe times itself")


def check_checks(child: run.Child, work: str) -> None:
    good = [(0.179, 0.1774402534729776, None), (1.0, 0.7833687892100094, True)]
    expect(not oracle.lambda0_problems(good), "lambda0 checks pass on correct values")
    expect(bool(oracle.lambda0_problems([(400.0, 2.0, None)])), "lambda0 > 1 is rejected")
    expect(bool(oracle.lambda0_problems([(0.179, 0.1774, None)])),
           "lambda0 below the trial quotient is rejected")
    expect(bool(oracle.lambda0_problems([(0.5, 0.4, None), (0.6, 0.39, None)])),
           "decreasing lambda0 is rejected")
    expect(bool(oracle.lambda0_problems([(1.0, 0.7833687892100094, False)])),
           "a wrong well_defined verdict is rejected")

    spec = {"slit_width_text": "512.5um", "wavelength_text": "532.00nm",
            "focal_length_text": "120.00mm", "pixel_size_text": "7.0um", "pixels": 1024,
            "noise_sigma": 0.0, "quantize": False, "noise_seed": 3}
    out = os.path.join(work, "frame")
    for argv in inputs.frame_argv(spec, out):
        child.run(["-m", "slitbound.cli", *argv])
    paths = [os.path.join(out, n) for n in ("frame.csv", "trace.csv", "estimate_report.json")]
    with open(paths[2]) as fh:
        report = json.load(fh)
    meters = inputs.frame_spec_meters(spec)
    expect(not oracle.frame_problems(*paths[:2], report, meters), "frame checks pass on a clean frame")
    with open(paths[1]) as fh:
        lines = fh.read().splitlines()
    for column, label in ((2, "gamma_hat"), (3, "gamma_theory")):
        bent = list(lines)
        cells = bent[-1].split(",")
        cells[column] = repr(float(cells[column]) * (1 + 1e-6))
        bent[-1] = ",".join(cells)
        bent_path = os.path.join(out, f"bent-{label}.csv")
        with open(bent_path, "w") as fh:
            fh.write("\n".join(bent) + "\n")
        expect(bool(oracle.frame_problems(paths[0], bent_path, report, meters)),
               f"a 1e-6 change of the edge {label} is rejected")
    wider = dict(meters, slit_width=meters["slit_width"] * 1.001)
    expect(bool(oracle.frame_problems(*paths[:2], report, wider)),
           "a frame for another slit width is rejected")
    minstate = {"parameters": {"n_max": 4096}, "results": {"product_over_hbar": math.pi * 0.9998}}
    expect(bool(oracle.minstate_problems(minstate)), "a minstate product beyond its tail is rejected")


def check_workloads(child: run.Child, work: str) -> None:
    session = run.cli_rounds(child, 1, 0.0, os.path.join(work, "cli"), "plain", min_ops=1)
    expect(len(session["ops"]) == 6 and not run.cli_problems(session["ops"]),
           "one cli-session round passes its checks")
    for workload, check in (("lambda0-scan", run.lambda0_problems),
                            ("frame-pipeline", run.frame_problems)):
        result = run.worker_run(child, workload, 1, 0.0, os.path.join(work, workload),
                                trace=True, min_ops=4)
        ops = result["ops"]
        expect(bool(ops) and not check(ops), f"a brief traced {workload} passes its checks")
        if workload == "lambda0-scan":
            failed = sum(op["failed"] for op in ops)
            expect(8 * failed == len(ops), "lambda0-scan fails exactly one operation in eight")
            expect(bool(result["spans"]["self_s"].get("concentration.lp_lambda0")),
                   "traced rounds record lp_lambda0 spans")


def check_output_contract() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                               "--workload", "lambda0-scan", "--seed", "1", "--seconds", "1",
                               "--trace", str(trace)],
                              cwd=run.ROOT, capture_output=True, text=True, timeout=170)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(proc.returncode == 0 and result["correct"]
               and units == {m["name"]: m["unit"] for m in spec[group]},
               f"--trace {trace} prints every {group} metric of BENCHMARK.json with its unit")


def check_no_sources(work: str) -> None:
    bare = os.path.join(work, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-session",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without sources run.py exits non-zero and prints no result")


def main() -> int:
    work = os.path.join(run.HERE, ".work", f"selfcheck-{os.getpid()}")
    os.makedirs(work)
    try:
        child = run.Child(run.child_env(), os.path.join(work, "child.log"))
        check_scaling()
        check_oracle()
        check_checks(child, work)
        check_workloads(child, work)
        check_output_contract()
        check_no_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
