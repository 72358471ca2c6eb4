#!/usr/bin/env python3
"""Build and run herdcats' benchmark from the root of a checkout.

    python3 perfbench/run.py --workload cold-light --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8
    python3 perfbench/run.py --selftest

The benchmark is a Go module of its own (perfbench/go.mod) that uses the
repository's packages through a replace directive, so it builds only from a
full checkout. The build cache, the binary, temporary files and traced span
files all go under .bench_build (or $CARGO_TARGET_DIR) in the checkout.
Each workload runs in a fresh process; --workload all runs the four in
turn and prints a table of their end-to-end metrics.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold-light", "cold-heavy", "warm-gw-batch", "mine-ppc"]
METRICS = ["setup_s", "verdicts_per_s", "latency_p50_ms", "peak_rss_mb"]


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env():
    out = build_dir()
    tmp, home = os.path.join(out, "tmp"), os.path.join(out, "home")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update({
        # The go command keeps telemetry and settings under the user's
        # config directory; point it into the build directory too.
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(out, "go-cache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def go(args, env):
    """Run one go command in the benchmark module; exit on failure."""
    p = subprocess.run(["go"] + args, cwd=HERE, env=env)
    if p.returncode != 0:
        sys.exit(p.returncode or 1)


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: no go.mod at the checkout root; run from a full checkout\n")
        sys.exit(1)
    binary = os.path.join(build_dir(), "perfbench")
    go(["build", "-o", binary, "."], env)
    return binary


def run_one(binary, env, workload, rest):
    """Run one workload in a fresh process; return (exit code, stdout lines)."""
    p = subprocess.run([binary, "--workload", workload, "--out", build_dir()] + rest,
                       cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    return p.returncode, p.stdout.splitlines()


def run_all(binary, env, rest):
    rows = []
    for w in WORKLOADS:
        code, lines = run_one(binary, env, w, rest)
        for line in lines[:-1]:
            print(line)
        if code != 0 or not lines:
            sys.stderr.write("perfbench: %s failed with exit code %d\n" % (w, code))
            sys.exit(code or 1)
        rows.append((w, json.loads(lines[-1])))
    header = ["workload"] + METRICS + ["failed_frac", "correct"]
    print(" ".join("%-16s" % h for h in header))
    for w, r in rows:
        m = r["metrics"]
        cells = [w] + ["%.4f %s" % (m[k]["value"], m[k]["unit"]) if k in m else "-" for k in METRICS]
        cells += ["%.4f" % (r["failed"] / r["attempted"]), str(r["correct"])]
        print(" ".join("%-16s" % c for c in cells))
    if not all(r["correct"] for _, r in rows):
        sys.exit(1)


def main():
    argv = sys.argv[1:]
    env = go_env()
    if argv == ["--selftest"]:
        build(env)
        go(["test", "-count=1", "."], env)
        return
    binary = build(env)
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
        i = argv.index("--workload")
        run_all(binary, env, argv[:i] + argv[i + 2:])
        return
    p = subprocess.run([binary, "--out", build_dir()] + argv, cwd=ROOT, env=env)
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
