#!/usr/bin/env python3
"""End-to-end benchmark of the polyroots library.

Builds the library and the benchmark binary from source, then runs one
workload through the public entry points and prints, as its last stdout
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 e2ebench/run.py --workload tree-large --seed 3 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer metrics, from a run that also records spans (written as Chrome
trace-event JSON next to the build) and decomposes the calls by layer.

Other modes (run from the repository root):

    python3 e2ebench/run.py --selfcheck        # determinism and stamp checks
    python3 e2ebench/run.py --compare A.json B.json
    python3 e2ebench/run.py --make-oracle      # rewrite e2ebench/oracle.txt

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench);
each run also saves a stamped record under runs/ there.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tree-large", "interval-highmu", "service-mixed")
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
# Set-up is measured in this many set-up-only processes plus the run
# itself; setup_s is their median.
SETUP_PROBES = 3
ORACLE = os.path.join(HERE, "oracle.txt")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        log("e2ebench: command failed:", " ".join(cmd))
        sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("e2ebench: library sources (src/) not found; nothing to build")
        sys.exit(2)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", bdir, "-j", "4", "--target", "e2e_bench"])
    return os.path.join(bdir, "e2e_bench")


def spawn(binary, args):
    """Runs the benchmark binary; returns (exit code, seconds to READY, other lines).

    The seconds to READY are scaled by the host speed the binary probes
    right after it (its "SPEED f" line), as the timed metrics are."""
    t0 = time.monotonic()
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    ready = speed = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.monotonic() - t0
                continue
            if ready is not None and speed is None and line.startswith("SPEED "):
                speed = float(line.split()[1])
                continue
            lines.append(line.rstrip("\n"))
    finally:
        if proc.poll() is None:
            proc.stdout.close()
        rc = proc.wait()
    if ready is not None and speed is not None:
        ready *= speed
    return rc, ready, lines


def stamps(result):
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL,
                                text=True).stdout.strip() or "none"
    except OSError:
        commit = "none"
    return {
        "profile_id": result["profile_id"],
        "isa": result["isa"],
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_digest": digest.hexdigest()[:16],
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(args):
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    binary = build()
    out_dir = build_dir()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out-dir", out_dir, "--oracle", ORACLE]
    setups = []
    for _ in range(SETUP_PROBES):
        rc, ready, _ = spawn(binary, common + ["--mode", "setup"])
        if rc != 0 or ready is None:
            log("e2ebench: set-up probe failed")
            sys.exit(1)
        setups.append(ready)
    rc, ready, lines = spawn(binary, common + [
        "--mode", "run", "--seconds", str(args.seconds),
        "--trace", str(args.trace)])
    results = [l for l in lines if l.startswith("RESULT ")]
    if rc != 0 or ready is None or not results:
        log("e2ebench: run failed (exit %d)" % rc)
        sys.exit(1)
    setups.append(ready)
    result = json.loads(results[-1][len("RESULT "):])
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)

    values = dict(result["e2e"])
    values["setup_s"] = statistics.median(setups)
    values.update(result["layer"])
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in spec[group]}

    stamp = stamps(result)
    print("stamp: " + " ".join("%s=%s" % kv for kv in sorted(stamp.items())))
    print("error_rate: %s (%d failed of %d attempted)" % (
        result["e2e"]["error_rate"], result["failed"], result["attempted"]))
    print("mix: " + json.dumps(result["mix"], sort_keys=True))
    print("setup_s samples: " + ", ".join("%.4f" % s for s in setups))
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "stamp": stamp, "rounds": result["rounds"],
              "tail_percentile": result["tail_percentile"],
              "samples": result["samples"], "mix": result["mix"],
              "metrics": metrics}
    runs = os.path.join(out_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    path = os.path.join(runs, "%s-s%d-t%d.json" % (args.workload, args.seed,
                                                   args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("record: " + os.path.relpath(path, ROOT))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


def compare(path_a, path_b):
    """Prints metric ratios of two run records; refuses mixed profiles."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if a["stamp"]["profile_id"] != b["stamp"]["profile_id"]:
        log("e2ebench: refusing to compare runs under different calibration "
            "profiles (%s vs %s)" % (a["stamp"]["profile_id"],
                                     b["stamp"]["profile_id"]))
        return 3
    print("%-36s %14s %14s %8s" % ("metric", "A", "B", "B/A"))
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        ratio = "%.3f" % (vb / va) if va else "-"
        print("%-36s %14.6g %14.6g %8s" % (name, va, vb, ratio))
    return 0


def selfcheck():
    binary = build()
    ok = True

    def inputs(workload, seed):
        rc, _, lines = spawn(binary, ["--workload", workload, "--seed",
                                      str(seed), "--mode", "inputs"])
        if rc != 0:
            sys.exit(1)
        return lines

    for w in WORKLOADS:
        first, second = inputs(w, DEFAULT_SEED), inputs(w, DEFAULT_SEED)
        held = inputs(w, HELD_OUT_SEED)
        sizes = [l for l in first if l.startswith("size ")]
        same = first == second
        sized = sizes == [l for l in held if l.startswith("size ")]
        print("%-16s same-seed input digests identical: %s; held-out seed "
              "sizes equal: %s" % (w, same, sized))
        ok = ok and same and sized

    mixes = []
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        rc, _, lines = spawn(binary, ["--workload", "service-mixed", "--seed",
                                      str(seed), "--seconds", "4",
                                      "--out-dir", build_dir(),
                                      "--oracle", ORACLE])
        results = [l for l in lines if l.startswith("RESULT ")]
        if rc != 0 or not results:
            sys.exit(1)
        result = json.loads(results[-1][len("RESULT "):])
        mixes.append(result["mix"])
        for key in ("profile_id", "isa", "hardware_threads"):
            ok = ok and key in result
    worst = max(abs(mixes[0].get(k, 0) - mixes[1].get(k, 0))
                for k in set(mixes[0]) | set(mixes[1]))
    print("service-mixed outcome mix, seed %d: %s" % (DEFAULT_SEED,
                                                      json.dumps(mixes[0], sort_keys=True)))
    print("service-mixed outcome mix, seed %d: %s" % (HELD_OUT_SEED,
                                                      json.dumps(mixes[1], sort_keys=True)))
    print("largest outcome-share difference: %.3f (limit 0.05)" % worst)
    ok = ok and worst <= 0.05

    # Records under different calibration profiles must not be compared.
    tmp = os.path.join(build_dir(), "selfcheck")
    os.makedirs(tmp, exist_ok=True)
    paths = []
    for pid in ("defaults-scalar", "cal-00000000-avx2"):
        path = os.path.join(tmp, pid + ".json")
        with open(path, "w") as f:
            json.dump({"stamp": {"profile_id": pid}, "metrics": {}}, f)
        paths.append(path)
    refused = compare(*paths) == 3
    print("compare refuses mixed calibration profiles: %s" % refused)
    ok = ok and refused
    print("selfcheck: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def make_oracle():
    binary = build()
    lines = []
    for w in WORKLOADS:
        rc, _, out = spawn(binary, ["--workload", w, "--seed",
                                    str(DEFAULT_SEED), "--mode", "oracle"])
        if rc != 0:
            log("e2ebench: oracle generation failed for " + w)
            return 1
        lines += out
    with open(ORACLE, "w") as f:
        f.write("\n".join(lines) + "\n")
    print("wrote %d reference digests to %s" % (len(lines),
                                                 os.path.relpath(ORACLE, ROOT)))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=None,
                   help="timed seconds (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--compare", nargs=2, metavar="RECORD")
    p.add_argument("--make-oracle", action="store_true")
    args = p.parse_args()
    if args.selfcheck:
        return selfcheck()
    if args.compare:
        return compare(*args.compare)
    if args.make_oracle:
        return make_oracle()
    if not args.workload:
        p.error("--workload is required")
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
