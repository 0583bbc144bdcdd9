"""One pass over a workload's operations in a fresh interpreter.

Started by run.py under a fixed PYTHONHASHSEED and a memory cap.  It
builds the inputs, prints ``ready``, runs every operation once (timing
each call from outside), checks the answers against the oracles, and
prints one JSON report line.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback

import workloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ops = workloads.make_ops(args.workload, args.seed, args.variant)
    print("ready", flush=True)

    tracer = workloads.Tracer() if args.trace else None
    answers = []
    latencies = []
    errors = []
    for i, op in enumerate(ops):
        answer = error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                answer = op.run()
            else:
                tracer.op = i
                answer = op.traced(tracer)
        except Exception:  # a failed operation, recorded; the pass goes on
            error = traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - start)
        answers.append(answer)
        errors.append(error)

    # peak memory of the operations, before the oracles run
    report = {"ops": [], "maxrss_kb":
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    digest = hashlib.sha256()
    for op, answer, error, latency in zip(ops, answers, errors, latencies):
        if error is not None:
            status, canon = "failed", "error"
        else:
            ok, canon = op.check(answer)
            if ok:
                status = "ok"
            elif op.known_fault:
                status, error = "failed", "known fault: %s" % op.known_fault
            else:
                status, error = "incorrect", "wrong answer %r" % (canon,)
        digest.update(repr((op.name, canon)).encode())
        report["ops"].append({"name": op.name, "latency_s": latency,
                              "status": status, "error": error})
    report["answers_sha256"] = digest.hexdigest()
    if tracer is not None:
        report["layers"] = tracer.values
        report["spans"] = tracer.spans
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    sys.exit(main())
