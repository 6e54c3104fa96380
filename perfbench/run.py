#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tiny]

Builds the driver (perfbench/CMakeLists.txt, the repository's libraries
from src/) into $CARGO_TARGET_DIR/perfbench/<hash of the checkout's path>
(CARGO_TARGET_DIR defaults to .bench_build), runs the
workload single-threaded per device (CUSIM_SEQUENTIAL=1), checks every
output against the dense oracle, and prints the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1) named in BENCHMARK.json as
the last line of stdout. Modeled and accuracy metrics are recorded per
(workload, seed, build) in the build directory; a later run of the same
seed whose values differ exits with status 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

WORKLOADS = ("steady_2e18", "cold_mixed_fleet", "serve_cluster")
DEADLINE_S = 175.0  # a run must end within 180 s once the driver is built


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures and builds the driver; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring every run is cheap on a cached tree, and it fails when the
    # cache belongs to another source tree.
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", jobs,
              "--target", "perfbench_driver"]]
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, cwd=root, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return build_dir / "perfbench_driver"


def run_driver(exe, args, out_path, deadline):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("CUSFFT_", "CUSIM_"))}
    env["CUSIM_SEQUENTIAL"] = "1"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_path)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, env=env, timeout=deadline)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {deadline:.0f} s")
    if proc.returncode != 0:
        fail(f"driver exited with status {proc.returncode}")
    with open(out_path) as f:
        return json.load(f)


def check_determinism(build_dir, exe, args, raw):
    """Modeled and accuracy metrics must repeat for a seed on one build of
    the driver and one version of metrics.py; the first run of a seed
    records them."""
    det = metrics.deterministic(raw)
    digest = hashlib.sha256(exe.read_bytes())
    digest.update(Path(metrics.__file__).read_bytes())
    build_id = digest.hexdigest()[:12]
    tag = (f"{args.workload}-{args.seed}" + ("-tiny" if args.tiny else "")
           + f"-{build_id}")
    path = build_dir / "det" / f"{tag}.json"
    if path.exists():
        seen = json.loads(path.read_text())
        diff = {k: (seen.get(k), v) for k, v in det.items()
                if seen.get(k) != v}
        if diff:
            fail(f"modeled/accuracy metrics changed for seed {args.seed}: "
                 f"{diff}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(det))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="small signals, same sample counts (smoke tests)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be >= 0")

    root = HERE.parent
    spec_path = root / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # One build directory per checkout: a target directory shared by two
    # checkouts must not build one checkout's sources for the other.
    tree = hashlib.sha256(str(root.resolve()).encode()).hexdigest()[:12]
    build_dir = (root / target).resolve() / "perfbench" / tree

    exe = build(root, build_dir)
    start = time.monotonic()
    out_path = build_dir / "runs" / (
        f"{args.workload}-{args.seed}-{args.trace}"
        + ("-tiny" if args.tiny else "") + ".json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    raw = run_driver(exe, args, out_path, DEADLINE_S)

    try:
        if args.trace:
            values = metrics.per_layer(raw)
            wanted = spec["per_layer"]
        else:
            values, counts = metrics.end_to_end(raw)
            wanted = spec["end_to_end"]
            print("perfbench: " + " ".join(f"{k}={v}"
                                           for k, v in counts.items()))
        check_determinism(build_dir, exe, args, raw)
    except metrics.InsufficientSamples as e:
        fail(f"too few samples: {e}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not computed: {missing}")
    attempted, failed = metrics.hard_failures(raw)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(f"perfbench: {args.workload} seed {args.seed} took "
          f"{time.monotonic() - start:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
