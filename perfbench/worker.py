"""One long-lived process running an in-process workload.

    python perfbench/worker.py CONFIG_JSON RESULT_JSON

CONFIG_JSON holds workload ('lambda0-scan' or 'frame-pipeline'), seed,
seconds, min_ops, trace and out.  The worker imports slitbound, runs whole
rounds until both ``seconds`` have passed and ``min_ops`` operations are done,
and writes each operation's inputs, outputs, latency and host-speed probe time
(hostspeed.py) to RESULT_JSON.  With trace set, odd rounds run with the layer
wrappers installed and even rounds without, so the two halves give the tracing
overhead.
"""

import json
import math
import os
import sys
import time

import numpy as np

import inputs
from hostspeed import PROBES
from oracle import LAMBDA_TOL
from tracing import Tracer


def lambda0_op(kind, xi, lp_lambda0, reanalyze_products, errors):
    """One lambda0 evaluation: (outputs, failed, error).  A direct call fails
    when lambda0 leaves [0, 1] beyond rounding; reanalyze fails by raising."""
    try:
        if kind == "lp":
            result = lp_lambda0(xi)
            failed = not -LAMBDA_TOL <= result.lambda0 <= 1.0 + LAMBDA_TOL
            return {"xi": result.xi, "lambda0": result.lambda0, "well_defined": None}, failed, None
        (row,) = reanalyze_products([2.0 * math.pi * xi])
        return {"xi": row.xi, "lambda0": row.lambda0, "well_defined": row.well_defined}, False, None
    except errors as exc:
        return None, True, f"{type(exc).__name__}: {exc}"


def run(config: dict) -> dict:
    import slitbound
    import slitbound.cli
    from slitbound import InvalidArgument, NumericFailure

    # the first LAPACK call of a fresh interpreter can stall; take it here
    rng = np.random.default_rng(0)
    m = rng.normal(size=(400, 400))
    np.linalg.eigh(m + m.T)

    workload = config["workload"]
    rounds = (inputs.LambdaRounds(config["seed"]) if workload == "lambda0-scan"
              else inputs.FrameRounds(config["seed"]))
    tracer = Tracer()
    probe = PROBES[workload]()
    ops = []
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        done = elapsed >= config["seconds"] and len(ops) >= config["min_ops"]
        if done and (not config["trace"] or index % 2 == 0):
            break
        traced = bool(config["trace"]) and index % 2 == 1
        if traced:
            tracer.install()
        for op in rounds.next():
            if workload == "lambda0-scan":
                kind, xi = op
                probe_s = probe()
                t0 = time.perf_counter()
                # looked up per call, so the tracer's wrappers are the ones called
                out, failed, error = lambda0_op(kind, xi, slitbound.lp_lambda0,
                                                slitbound.reanalyze_products,
                                                (InvalidArgument, NumericFailure))
                latency = time.perf_counter() - t0
                ops.append({"kind": kind, "xi_in": xi, "out": out, "failed": failed,
                            "error": error, "latency_s": latency, "probe_s": probe_s,
                            "traced": traced})
            else:
                out = os.path.join(config["out"], f"frame-{len(ops):05d}")
                simulate, estimate = inputs.frame_argv(op, out)
                probe_s = probe()
                t0 = time.perf_counter()
                codes = [slitbound.cli.main(simulate), slitbound.cli.main(estimate)]
                latency = time.perf_counter() - t0
                ops.append({"spec": op, "dir": out, "failed": codes != [0, 0],
                            "error": None if codes == [0, 0] else f"exit codes {codes}",
                            "latency_s": latency, "probe_s": probe_s, "traced": traced})
        tracer.uninstall()
        index += 1
    return {"ops": ops, "elapsed_s": time.perf_counter() - start, "spans": tracer.summary()}


def main() -> int:
    config_path, result_path = sys.argv[1:]
    with open(config_path) as fh:
        config = json.load(fh)
    result = run(config)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
