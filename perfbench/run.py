#!/usr/bin/env python3
"""Build and run the TReX benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first form builds `perfbench/` (its own
Cargo package, path dependencies on `crates/`) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload and passes
its output through: `#` lines with the run stamp, every metric by name and
unit, `fail_frac` and failure causes, then one JSON line
`{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

`--self-test` runs every workload briefly, untraced and traced, and checks
that each metric named in BENCHMARK.json appears exactly once with its unit
and a finite value (a metric nothing was measured for reads NaN), that
every answer was correct, and that runs which fold did fold.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Self-test run length: long enough that every traced quarter of
# ingest_mixed (50 documents per second) reaches a fold (every 250).
SELF_TEST_SECONDS = 24
# Workloads the binary runs that BENCHMARK.json does not list (see
# perfbench/README.md): the self-test covers them too.
EXTRA_WORKLOADS = ["ingest_mixed"]


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def source_rev():
    """The git revision, or a hash of the sources when not in a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "crates", "vendor", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x not in ("target", ".bench_build"))
            paths.extend(os.path.join(d, f) for f in sorted(files))
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def build():
    """Builds the benchmark binary and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "trex", "Cargo.toml")):
        fail("the TReX sources (crates/) are not here; run from a full checkout")
    if shutil.which("cargo") is None:
        fail("cargo not found")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr; stdout carries only results.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("benchmark build failed")
    return os.path.join(target, "release", "trex-perfbench")


def clean_stale_runs():
    """Removes store directories left by a run that was killed."""
    out = os.path.join(ROOT, ".perfbench")
    if os.path.isdir(out):
        for name in os.listdir(out):
            if name.startswith("run-"):
                shutil.rmtree(os.path.join(out, name), ignore_errors=True)


def run(binary, args, capture=False):
    """Runs one workload; returns (exit code, stdout text or None)."""
    cmd = [binary] + args + ["--rev", source_rev()]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None,
            text=True,
        )
    except subprocess.TimeoutExpired:
        clean_stale_runs()
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return proc.returncode, proc.stdout


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        for trace, group in [(0, "end_to_end"), (1, "per_layer")]:
            args = [
                "--workload", workload, "--seed", "7",
                "--seconds", str(SELF_TEST_SECONDS), "--trace", str(trace),
            ]
            code, out = run(binary, args, capture=True)
            tag = f"{workload} trace={trace}"
            if code != 0 or not out:
                problems.append(f"{tag}: exit code {code}")
                continue
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            stamp = next(
                (json.loads(l[len("# stamp "):]) for l in lines if l.startswith("# stamp ")), {}
            )
            if "folds" in stamp and int(stamp["folds"]) < 1:
                problems.append(f"{tag}: no fold happened, so no fold was checked")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{tag}: incorrect answers ({result.get('failed')} failed)")
            if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
                problems.append(f"{tag}: attempted {result.get('attempted')}")
            metrics = result.get("metrics", {})
            want = {m["name"]: m["unit"] for m in spec[group]}
            if set(metrics) != set(want):
                problems.append(
                    f"{tag}: missing {sorted(set(want) - set(metrics))}, "
                    f"unexpected {sorted(set(metrics) - set(want))}"
                )
            for name, unit in want.items():
                m = metrics.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    problems.append(f"{tag}: {name} unit {m.get('unit')} != {unit}")
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{tag}: {name} value {v!r} is not finite")
            print(f"self-test {tag}: {len(metrics)} metrics checked", file=sys.stderr)
    for p in problems:
        print(f"self-test problem: {p}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    clean_stale_runs()
    if argv == ["--self-test"]:
        sys.exit(self_test(build()))
    flags = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or set(flags) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> | --self-test")
    code, _ = run(build(), argv)
    sys.exit(code)


if __name__ == "__main__":
    main()
