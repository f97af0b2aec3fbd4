#!/usr/bin/env python3
"""Regenerate BENCH_pipeline.json from data-plane benchmark output.

Reads the output of

    go test -run '^$' -bench DataPlane -benchmem -count=5 ./

from a file argument or standard input and rewrites, in the JSON file
named by --out (default BENCH_pipeline.json):

  - the reference, batched and executor rows: the median of the runs
    of each benchmark for ns/op, frames/sec, B/op and allocs/op, plus
    allocs per source frame;
  - the machine block: CPU model, GOOS/GOARCH and the benchmark's
    GOMAXPROCS from the go test header, nproc, and the Go version;
  - the acceptance lines that quote those numbers.

Every other key of the file is kept as it is. The script fails without
writing when any expected benchmark is missing from the input, so a
broken or interrupted run never lands in the file. `make
bench-pipeline-json` runs the benchmarks and this script together.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

# Source frames per chain, as in bench_pipeline_test.go: benchFrames for
# a single-chain run, benchFrames/4 per chain of an executor fleet.
FRAMES = 2000
FLEET_FRAMES = FRAMES // 4

REFERENCE = "BenchmarkDataPlaneReference"
BATCHED = ["BenchmarkDataPlaneBatched/batch=%d" % b for b in (1, 8, 64, 256)]
EXECUTOR = ["BenchmarkDataPlaneExecutor/sessions=%d" % s for s in (1, 16, 128)]

LINE = re.compile(r"^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+(.*)$")
UNITS = {"ns/op": "ns_per_op", "frames/sec": "frames_per_sec",
         "B/op": "bytes_per_op", "allocs/op": "allocs_per_op"}


def parse(lines):
    """Return ({benchmark: {field: [values]}}, header, gomaxprocs)."""
    runs, header, procs = {}, {}, None
    for line in lines:
        line = line.rstrip("\n")
        for key in ("goos", "goarch", "cpu"):
            if line.startswith(key + ":"):
                header[key] = line.split(":", 1)[1].strip()
        m = LINE.match(line)
        if not m:
            continue
        name, p, rest = m.groups()
        if p:
            procs = int(p)
        fields = rest.split()
        row = runs.setdefault(name, {})
        for value, unit in zip(fields[0::2], fields[1::2]):
            if unit in UNITS:
                row.setdefault(UNITS[unit], []).append(float(value))
    return runs, header, procs


def row(runs, name, frames):
    values = runs.get(name)
    if not values or any(k not in values for k in UNITS.values()):
        raise SystemExit("bench_pipeline_json: no complete %s rows in the input" % name)
    out = {}
    for key in ("ns_per_op", "frames_per_sec", "bytes_per_op", "allocs_per_op"):
        out[key] = round(statistics.median(values[key]))
    out["allocs_per_frame"] = round(out["allocs_per_op"] / frames, 3)
    out["runs"] = len(values["ns_per_op"])
    return out


def go_version():
    try:
        return subprocess.run(["go", "env", "GOVERSION"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def rate(fps):
    return "%.0fk" % (fps / 1000) if fps < 1e6 else "%.2fM" % (fps / 1e6)


def size(b):
    if b >= 1e6:
        return "%.1f MB" % (b / 1e6)
    return "%.0f KB" % (b / 1e3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("input", nargs="?", help="go test -bench output (default: stdin)")
    ap.add_argument("--out", default="BENCH_pipeline.json")
    args = ap.parse_args()

    if args.input:
        with open(args.input) as f:
            runs, header, procs = parse(f)
    else:
        runs, header, procs = parse(sys.stdin)

    ref = row(runs, REFERENCE, FRAMES)
    batched = {name: row(runs, name, FRAMES) for name in BATCHED}
    executor = {}
    for name in EXECUTOR:
        sessions = int(name.rsplit("=", 1)[1])
        executor[name] = row(runs, name, sessions * FLEET_FRAMES)

    with open(args.out) as f:
        doc = json.load(f)

    doc["machine"] = {
        "cpu": header.get("cpu", "unknown"),
        "goos": header.get("goos", "unknown"),
        "goarch": header.get("goarch", "unknown"),
        "go": go_version(),
        "nproc": nproc(),
        "gomaxprocs": procs or 1,
    }
    doc["reference"] = {
        "commit_note": doc.get("reference", {}).get("commit_note", ""),
        REFERENCE: ref,
    }
    doc["batched"] = batched
    doc["executor"] = {"note": doc.get("executor", {}).get("note", "")}
    doc["executor"].update(executor)

    b64 = batched["BenchmarkDataPlaneBatched/batch=64"]
    fleet = executor["BenchmarkDataPlaneExecutor/sessions=128"]
    fleet_rates = [executor[n]["frames_per_sec"] for n in EXECUTOR]
    acc = doc.setdefault("acceptance", {})
    acc["throughput_at_batch_64"] = "%s -> %s frames/sec on the 5-stage chain (%.1fx, target >= 5x)" % (
        rate(ref["frames_per_sec"]), rate(b64["frames_per_sec"]),
        b64["frames_per_sec"] / ref["frames_per_sec"])
    acc["allocs_per_frame_steady_state"] = (
        "%.1f -> %.3f allocs/frame at batch 64 (target < 1); %.3f across a 128-session executor fleet" % (
            ref["allocs_per_frame"], b64["allocs_per_frame"], fleet["allocs_per_frame"]))
    acc["memory_per_run"] = (
        "%s -> %s allocated per 2000-frame stream (%.0fx): lazy cursor + payload pool replace "
        "up-front materialization and per-re-encode allocation" % (
            size(ref["bytes_per_op"]), size(b64["bytes_per_op"]),
            ref["bytes_per_op"] / b64["bytes_per_op"]))
    acc["executor_scaling"] = (
        "aggregate %s-%s frames/sec from 1 to 128 concurrent sessions on %d workers; live memory "
        "bounded by O(workers x batch), verified by TestExecutorManyChains (1000 chains)" % (
            rate(min(fleet_rates)), rate(max(fleet_rates)), procs or 1))

    tmp = args.out + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=2, ensure_ascii=False)
        f.write("\n")
    os.replace(tmp, args.out)
    print("bench_pipeline_json: wrote %s (%d benchmarks, %d runs each)" % (
        args.out, 1 + len(batched) + len(executor), ref["runs"]), file=sys.stderr)


if __name__ == "__main__":
    main()
