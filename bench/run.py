"""treeprov benchmark runner.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client in a closed loop:
child interpreters (child.py) run one pass over the workload's
operations each, one child at a time.  A round starts one child per
hash seed in a fixed list, so every run covers the whole list; the run
repeats whole rounds for about --seconds and until it holds at least
MIN_OPS operations.  Child j of every round builds variant j of the
seed's inputs, so the rounds of a run repeat the same work and a run's
figures do not turn on how many rounds fit.  Each child runs under a
memory cap, so a blow-up is a failed operation rather than a lost
machine.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the children run the traced variant of each operation and the
line holds the per-layer metrics.  Details of the run (every latency,
every span) go to bench/out/.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src" / "treeprov" / "__init__.py"
OUT = BENCH / "out"

HASH_SEEDS = 8  # children per round, one per PYTHONHASHSEED
MIN_OPS = 100  # enough operations for a 90th percentile with 10 beyond it
MEMORY_CAP = 2 << 30  # address-space limit of each child, bytes
CHILD_TIMEOUT = 90  # seconds
HARD_LIMIT = 140  # seconds; no new round starts past this
TIME_LIMIT = 170  # seconds; a run that would pass it gives no result

WORKLOADS = ("bool-provenance", "nx-provenance", "probability", "prxml")

# Per-layer metrics: (name, unit, how passes combine).  "sum" values are
# totals per pass over the inputs, averaged over the run's passes; "max"
# values are the largest seen in the run.  A layer that a workload does
# not call reads 0.
LAYER_METRICS = (
    ("relational.decompose_s", "s", "sum"),
    ("relational.width", "count", "max"),
    ("relational.bags", "count", "sum"),
    ("encoding.encode_s", "s", "sum"),
    ("encoding.nodes", "count", "sum"),
    ("automata.states_reached", "count", "sum"),
    ("automata.delta_calls", "count", "sum"),
    ("provcirc.provenance_s", "s", "sum"),
    ("provcirc.gates", "count", "sum"),
    ("ucq.nx_provenance_s", "s", "sum"),
    ("circuits.nx_gates", "count", "sum"),
    ("circuits.expand_s", "s", "sum"),
    ("circuits.monomials", "count", "sum"),
    ("circuits.nat_eval_s", "s", "sum"),
    ("prob.to_pcc_s", "s", "sum"),
    ("prob.pcc_gates", "count", "sum"),
    ("prob.lineage_s", "s", "sum"),
    ("prob.lineage_gates", "count", "sum"),
    ("prob.lineage_width", "count", "max"),
    ("prob.message_passing_s", "s", "sum"),
    ("prob.count_matches_s", "s", "sum"),
    ("prxml.to_pc_s", "s", "sum"),
    ("prxml.pc_max_events", "count", "max"),
)

END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_s", "s"),
              ("latency_p90_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


def hash_seeds():
    """PYTHONHASHSEED values of every run, drawn once from a fixed
    generator: child j of a round runs variant j under the j-th, so the
    cost that the hash seed adds is the same in every run."""
    rng = random.Random("hash-seeds")
    return [rng.randrange(1 << 32) for _ in range(HASH_SEEDS)]


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


class ChildError(Exception):
    pass


def read_line(fd, buf, deadline):
    """Read from fd until buf holds a newline or EOF; returns (buf, eof)."""
    while b"\n" not in buf:
        left = deadline - time.perf_counter()
        if left <= 0:
            raise ChildError("child timed out")
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return buf, True
            buf += chunk
    return buf, False


def run_child(workload, seed, variant, trace, hash_seed):
    """One pass in a child; returns (setup seconds, report or None)."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--variant", str(variant),
           "--trace", str(trace)]
    spawned = time.perf_counter()
    deadline = spawned + CHILD_TIMEOUT
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            bufsize=0, preexec_fn=limit_memory)
    try:
        fd = proc.stdout.fileno()
        buf, eof = read_line(fd, b"", deadline)
        setup = time.perf_counter() - spawned
        if eof or not buf.startswith(b"ready\n"):
            raise ChildError("child under PYTHONHASHSEED=%d did not start: "
                             "exit code %s" % (hash_seed, proc.wait()))
        buf = buf[len(b"ready\n"):]
        while True:
            buf, eof = read_line(fd, buf, deadline)
            if eof:
                break
            line, buf = buf.split(b"\n", 1)
            if line.strip():
                report = json.loads(line)
                return setup, report
        return setup, None  # died mid-pass: its operations count as failed
    except ChildError:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.wait()


def percentile(values, q):
    """q-th percentile (0 < q < 100) by Python's quantiles, inclusive."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(reports, setups, latencies):
    """Throughput is operations over the time spent in them, pooled over
    the run; peak memory is the largest child's."""
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": percentile(latencies, 90),
        "peak_rss_mb": max(c["maxrss_kb"] for c in reports) / 1024,
        "setup_s": statistics.median(setups),
    }


def per_layer(children, hseeds):
    out = {}
    passes = [c for _, c in children if c]
    for name, unit, how in LAYER_METRICS:
        values = [c["layers"].get(name, 0) for c in passes]
        out[name] = (max(values) if how == "max"
                     else sum(values) / len(values), unit)
    by_seed = {}
    for h, c in children:
        if c:
            by_seed.setdefault(h, []).append(
                c["layers"].get("prob.message_passing_s", 0))
    means = [sum(v) / len(v) for v in by_seed.values()]
    out["prob.message_passing_hs_min_s"] = (min(means), "s")
    out["prob.message_passing_hs_max_s"] = (max(means), "s")
    out["trace.pass_op_s"] = (
        sum(sum(o["latency_s"] for o in c["ops"]) for c in passes)
        / len(passes), "s")
    return out, dict(zip(map(str, hseeds), means))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not SOURCE.is_file():
        print("treeprov sources not found at %s; run from the root of a "
              "checkout" % SOURCE.relative_to(ROOT), file=sys.stderr)
        return 2

    hseeds = hash_seeds()
    children = []  # (hash seed, report or None)
    setups = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for h in hseeds:
            if children and (time.perf_counter() - start) * (
                    len(children) + 1) / len(children) > TIME_LIMIT:
                print("benchmark aborted: the next pass would end past %d s"
                      % TIME_LIMIT, file=sys.stderr)
                return 1
            try:
                setup, report = run_child(args.workload, args.seed,
                                          len(children) % HASH_SEEDS,
                                          args.trace, h)
            except ChildError as e:
                print("benchmark aborted: %s" % e, file=sys.stderr)
                return 1
            setups.append(setup)
            children.append((h, report))
        rounds += 1
        elapsed = time.perf_counter() - start
        # another round if that ends the run nearer to --seconds
        half_round = elapsed / rounds / 2
        ops = sum(len(c["ops"]) for _, c in children if c)
        if elapsed + 2 * half_round > HARD_LIMIT or (
                ops >= MIN_OPS and elapsed + half_round >= args.seconds):
            break

    reports = [c for _, c in children if c]
    if not reports:
        print("benchmark aborted: every child died", file=sys.stderr)
        return 1
    per_pass = len(reports[0]["ops"])
    died = len(children) - len(reports)
    attempted = sum(len(c["ops"]) for c in reports) + per_pass * died
    statuses = [o["status"] for c in reports for o in c["ops"]]
    failed = attempted - statuses.count("ok") - statuses.count("incorrect")
    correct = "incorrect" not in statuses
    latencies = [o["latency_s"] for c in reports for o in c["ops"]]

    if args.trace:
        metrics, mp_by_seed = per_layer(children, hseeds)
    else:
        metrics = {k: (v, dict(END_TO_END)[k]) for k, v in
                   end_to_end(reports, setups, latencies).items()}
        mp_by_seed = None

    # answers of the first round, whose inputs every run of this seed has
    first = hashlib.sha256(" ".join(
        c["answers_sha256"] if c else "died"
        for _, c in children[:HASH_SEEDS]).encode()).hexdigest()
    lines = ["workload %s  seed %d  trace %d  hash seeds %s"
             % (args.workload, args.seed, args.trace, hseeds),
             "rounds %d  children %d  operations %d (%d per pass)  "
             "attempted %d  failed %d  correct %s  wall %.1f s"
             % (rounds, len(children), len(latencies), per_pass, attempted,
                failed, correct, time.perf_counter() - start),
             "answers sha256 (first round) %s" % first]
    for name, (value, unit) in metrics.items():
        lines.append("  %-34s %14.6g %s" % (name, value, unit))
    if mp_by_seed and any(mp_by_seed.values()):
        lines.append("prob.message_passing_s per pass by hash seed: %s"
                     % ", ".join("%s=%.4f" % kv for kv in mp_by_seed.items()))
    problems = {(o["status"], o["name"], o["error"].strip().splitlines()[-1])
                for c in reports for o in c["ops"] if o["status"] != "ok"}
    lines += ["%s %s: %s" % p for p in sorted(problems)]
    print("\n".join(lines))

    OUT.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "hash_seeds": hseeds,
              "setup_s": setups, "children": children,
              "answers_sha256": first}
    path = OUT / ("%s-seed%d-trace%d.json"
                  % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(detail))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
