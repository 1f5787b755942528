#!/usr/bin/env python3
"""Build and run the repository benchmark, and print its result line.

    python3 perfbench/run.py --workload paper_suite|move_storm|fleet \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is the Rust package in
this directory; it is built from source with `cargo build --release
--offline` into `$CARGO_TARGET_DIR` (default `.bench_build`). The last
line of stdout is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: with `--trace 0` the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics. The lines before
it are the binary's own report (the span ledger when tracing) and a
provenance record: host, toolchain, commit or source digest, seed,
scale, engine and sample counts.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    paths = []
    for top in ("crates", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            for f in files:
                if f.endswith((".rs", ".toml", ".lock", ".txt")):
                    paths.append(os.path.join(d, f))
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def commit():
    """The checkout's commit, only if ROOT itself is a git work tree."""
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        return command_output(["git", "rev-parse", "HEAD"])
    return None


def check_determinism(target_dir, report, source):
    """Compare the modeled-state digest with earlier runs of the same
    workload, seed and sources in this build directory."""
    store = os.path.join(target_dir, "perfbench-digests")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{report['workload']}-{report['seed']}.json")
    seen = None
    if os.path.exists(path):
        with open(path) as fh:
            seen = json.load(fh)
    if seen and seen.get("source") == source:
        return seen.get("digest") == report["digest"], True
    with open(path, "w") as fh:
        json.dump({"source": source, "digest": report["digest"]}, fh)
    return True, False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    binary = os.path.join(target_dir, "release", "carat-perfbench")
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited with code {run.returncode}")
    try:
        report = json.loads(lines[-1])
    except ValueError as e:
        fail(f"unreadable report: {e}")

    values = report["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        fail(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")

    source = source_digest()
    attempted, failed = report["attempted"], report["failed"]
    same, compared = check_determinism(target_dir, report, source)
    attempted += int(compared)
    if not same:
        failed += 1
        print("perfbench: modeled-state digest differs from an earlier run "
              "with the same seed and sources", file=sys.stderr)

    for line in lines[:-1]:
        print(line)
    provenance = {
        "nproc": report["nproc"],
        "commit": commit(),
        "source_sha256": source,
        "rustc": command_output(["rustc", "-V"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": report["scale"],
        "engine": report["engine"],
        "passes": report["passes"],
        "traced_passes": report["traced_passes"],
        "slices_per_pass": report["slices_per_pass"],
        "digest": report["digest"],
    }
    print(json.dumps({"provenance": provenance}))
    units = {m["name"]: m["unit"] for m in wanted}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
