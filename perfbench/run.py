#!/usr/bin/env python3
"""Benchmark of the DD-POLICE reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow20k_attack --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all                # every workload, named metrics
    python3 perfbench/run.py --workload paper2k --smoke

The first run builds the C++ benchmark binary (perfbench/CMakeLists.txt, which
compiles ../src) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when the variable is unset. The binary measures the workload; this script checks its
output and prints, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end_to_end
metrics of BENCHMARK.json, with --trace 1 its per_layer metrics; the traced
run also writes its spans next to the build.
"""

import argparse
import ctypes
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["flow20k_attack", "paper2k", "packet_flood", "socket_loopback"]

# The per-layer metrics each workload's traced run must print: the layers it
# exercises. A per_layer metric of BENCHMARK.json outside this list reads 0
# (the layer did no work); one in it that the run does not print is an error.
_JUDGE = ["core.minute_ms", "core.suspicions", "core.rounds", "core.exchange_msgs",
          "core.traffic_msgs", "core.decisions", "core.cut_ratio"]
_FLOW = (["topology.build_ms", "flow.build_ms", "core.build_ms", "flow.tick_ms",
          "flow.ticks", "flow.shards", "flow.in_flight"] + _JUDGE +
         ["workload.churn_ms", "attack.minute_ms", "experiments.maintain_ms"])
_TRACE = ["trace.overhead_pct", "trace.spans"]
LAYERS = {
    "flow20k_attack": _FLOW + ["snapshot.save_ms", "snapshot.load_ms",
                               "snapshot.bytes"] + _TRACE,
    "paper2k": _FLOW + _TRACE,
    "packet_flood": ["topology.build_ms", "core.build_ms", "sim.events",
                     "sim.events_per_s", "sim.minute_ms", "p2p.issue_us",
                     "p2p.messages_sent", "p2p.dup_ratio", "p2p.queue_drops"]
                    + _JUDGE + _TRACE,
    "socket_loopback": ["net.encode_ns", "net.stream_decode_ns", "netengine.send_us",
                        "netengine.poll_us", "netengine.frames_per_poll",
                        "netengine.write_queue_max_bytes", "netengine.closes",
                        "frame_lat_p99_us", "loadgen.late_ms_max"] + _TRACE,
}
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json from the checkout root: %s" % e)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def cache_value(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity():
    """The git commit when the checkout is a repository, otherwise a hash of
    the sources the benchmark builds from."""
    root = os.path.dirname(HERE)
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only the checkout's own repository names its commit.
        if out.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(root):
            return lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def fingerprint():
    """Host identity: results are comparable only between equal fingerprints."""
    bdir = build_dir()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            if m:
                cpu = m.group(1).strip()
    except OSError:
        pass
    compiler = cache_value(bdir, "CMAKE_CXX_COMPILER")
    try:
        ver = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                             timeout=10).stdout.splitlines()
        if ver:
            compiler = ver[0]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": cache_value(bdir, "CMAKE_BUILD_TYPE"),
            "commit": source_identity()}


def span_self_times(path):
    """Self time (duration minus the time its stored children cover) of every
    span in a spans file. Returns (count, minimum self time in ns)."""
    spans = {}
    with open(path) as f:
        header = json.loads(f.readline())
        for line in f:
            s = json.loads(line)
            if s["run"] != header["run"]:
                raise ValueError("span from another run")
            spans[s["id"]] = s
    child = {i: 0 for i in spans}
    for s in spans.values():
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    selfs = [s["end_ns"] - s["start_ns"] - child[i] for i, s in spans.items()]
    return len(selfs), min(selfs) if selfs else 0


def spans_path(workload):
    """Where the traced run of a workload leaves its spans (the last one)."""
    return os.path.join(build_dir(), "spans-%s.jsonl" % workload)


ADDR_NO_RANDOMIZE = 0x0040000
# The heap on transparent huge pages (malloc asks for them with madvise; the
# system setting, huge pages on request only, is left alone). The sims keep
# 130-260 MiB of state; on 4 KiB pages their speed depends more on the pages
# a process happens to get.
MALLOC_TUNABLES = "glibc.malloc.hugetlb=1"


def binary_env():
    env = dict(os.environ)
    tunables = [t for t in (env.get("GLIBC_TUNABLES"), MALLOC_TUNABLES) if t]
    env["GLIBC_TUNABLES"] = ":".join(tunables)
    return env


def fixed_layout():
    """Run the measured binary with address-space randomisation off, so
    every run of one build gets the same memory layout. With it on, the
    socket workload's fast mode (see socket_loopback.cpp) is missing from
    some runs altogether, which spreads its rate by a fifth between runs of
    the same code. Best effort: where personality(2) is refused the binary
    runs with the layout the system gives it."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_binary(binary, workload, seed, seconds, trace, smoke, extra=()):
    cmd = [binary, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    spans = None
    if trace:
        spans = spans_path(workload)
        cmd += ["--spans", spans]
    if smoke:
        cmd.append("--smoke")
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, env=binary_env(),
                              preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        fail("%s exited with code %d" % (workload, proc.returncode), 1)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["spans_path"] = spans
    return out


def contract_result(spec, out, trace):
    """Map the binary's output onto the metrics BENCHMARK.json names."""
    correct = bool(out["correct"])
    metrics = {}
    if not trace:
        for m in spec["end_to_end"]:
            got = out["e2e"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                correct = False
                print("missing or mis-unit metric %s" % m["name"], file=sys.stderr)
                continue
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    else:
        layers = out["layers"]
        expected = LAYERS[out["workload"]]
        if set(layers) != set(expected):
            correct = False
            print("layer metrics missing: %s; unexpected: %s" % (
                sorted(set(expected) - set(layers)),
                sorted(set(layers) - set(expected))), file=sys.stderr)
        for m in spec["per_layer"]:
            got = layers.get(m["name"])
            # A layer the workload does not exercise did no work: 0.
            value = got["value"] if got is not None else 0.0
            if got is not None and got["unit"] != m["unit"]:
                correct = False
                print("metric %s has unit %s, not %s" % (m["name"], got["unit"],
                                                          m["unit"]), file=sys.stderr)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        try:
            count, min_self = span_self_times(out["spans_path"])
            if count == 0 or min_self < 0:
                correct = False
                print("spans file has no spans or a negative self time",
                      file=sys.stderr)
        except (OSError, ValueError, KeyError) as e:
            correct = False
            print("cannot read spans: %s" % e, file=sys.stderr)
    return {"correct": correct, "attempted": int(out["attempted"]),
            "failed": int(out["failed"]), "metrics": metrics}


def print_report(out, host):
    print("workload %s  seed %d  trace %d  digest %s" % (
        out["workload"], out["seed"], out["trace"], out["digest"] or "-"))
    print("  host " + json.dumps(host, sort_keys=True))
    for section in ("report", "layers"):
        for name, m in out[section].items():
            print("  %-32s %16.6g %s" % (name, m["value"], m["unit"]))
    for note in out["notes"]:
        print("  note: " + note)


def append_ledger(out, host):
    """Every result goes to a local ledger with the host fingerprint."""
    record = {"host": host, "workload": out["workload"], "seed": out["seed"],
              "trace": out["trace"], "digest": out["digest"],
              "correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"], "e2e": out["e2e"], "report": out["report"],
              "layers": out["layers"]}
    with open(os.path.join(build_dir(), "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes per workload")
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        fail("give exactly one of --workload and --all")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not 0 < seconds <= 600:
        fail("--seconds out of range")
    binary = build()
    host = fingerprint()
    workloads = WORKLOADS if args.all else [args.workload]
    results = []
    for w in workloads:
        out = run_binary(binary, w, args.seed, seconds, args.trace, args.smoke)
        print_report(out, host)
        append_ledger(out, host)
        results.append(contract_result(spec, out, args.trace))
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {"%s.%s" % (w, k): v for w, r in zip(workloads, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))


if __name__ == "__main__":
    main()
