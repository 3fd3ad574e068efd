#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run builds the program from
source with the benchmark's own sbt build (perfbench/build.sbt); later runs
reuse the build while no source file has changed. The benchmark then runs in
one JVM, which prints the result as the last line of standard output.
Everything the run writes stays under .bench_build/ and perfbench/target/.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
WORK = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("sim-headline", "plan-stats", "spark-reopt")
HEAP = "2g"
# One collector thread, so that collection does not compete with the client
# for the host's few cores, and a heap backed by transparent huge pages and
# touched at start, so that fewer TLB misses leave the client less exposed to
# other tenants' use of the shared caches.
JVM_FLAGS = ["-XX:+UseSerialGC", "-Xmn256m", "-XX:+UseTransparentHugePages", "-XX:+AlwaysPreTouch"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [PROGRAM_SRC, os.path.join(HERE, "src", "main"), os.path.join(HERE, "project")]
    files = [os.path.join(HERE, "build.sbt")]
    for root in roots:
        for d, dirs, names in os.walk(root):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("Spark not found: set SPARK_HOME or put spark-submit on PATH")
    return home


def sbt_env(home):
    env = dict(os.environ, SPARK_HOME=home)
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser("~/.sbt/repositories")
    opts = env.get("SBT_OPTS", "")
    if "sbt.repository.config" not in opts and os.path.isfile(repos):
        opts += (f" -Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
                 " -Dsbt.offline=true")
    env["SBT_OPTS"] = opts.strip()
    return env


def build(home):
    """Returns the run classpath, compiling first if any source changed."""
    cp_file, stamp_file = os.path.join(WORK, "classpath.txt"), os.path.join(WORK, "stamp.txt")
    want = stamp()
    if os.path.isfile(cp_file) and os.path.isfile(stamp_file):
        with open(stamp_file) as f, open(cp_file) as g:
            if f.read() == want:
                return g.read()
    if not shutil.which("sbt"):
        fail("sbt not found on PATH")
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "-J-XX:-UsePerfData",
         "compile", "export Runtime/fullClasspath"],
        cwd=HERE, env=sbt_env(home), stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"build failed (sbt exit code {proc.returncode})")
    classpath = lines[-1].strip()
    os.makedirs(WORK, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(classpath)
    with open(stamp_file, "w") as f:
        f.write(want)
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.isdir(PROGRAM_SRC):
        fail(f"program sources not found at {os.path.relpath(PROGRAM_SRC)}; "
             "run from the root of a full checkout")

    home = spark_home()
    classpath = build(home)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", *JVM_FLAGS, "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work-dir", WORK]
    proc = subprocess.Popen(cmd, cwd=WORK, stdin=subprocess.DEVNULL)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    sys.exit(code)


if __name__ == "__main__":
    main()
