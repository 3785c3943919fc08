"""Benchmark of the GF-RV / GF-CV / GF-CL graph store, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (one client, closed loop, one JVM with a local[4] Spark session):
  khop-wiki         Table 5 k-hop COUNT and FILTER paths over WIKI-lite
                    (10k nodes, ~400k edges): LBP vs Volcano, each count also
                    checked once per template against ParallelRunner.
  load-ladder       GraphLoader.build of all five ladder configs over
                    LDBC-lite (15k persons) and IMDb-lite (25k titles); the
                    traced run also sends LDBC IS/IC queries to GF-CL and GF-RV.

The program is compiled from source on first use (see build.py). The last
line of stdout is the result: {"correct", "attempted", "failed", "metrics"};
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer metrics and
writes spans under the build directory's traces/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind next to the sources
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("khop-wiki", "load-ladder")
RUN_TIMEOUT_S = 170

# The program's own methods compile in the foreground, so that the JIT sees
# the same profile in every run: with background compilation the LBP filter
# loop landed in one of two code shapes, 2x apart, at random. Then the
# --add-opens set Spark's launcher passes on JDK 17.
JVM_OPTS = [
    "-Xmx3g",
    "-XX:CompileCommand=quiet",
    "-XX:CompileCommand=BackgroundCompilation,repro.*::*,false",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Dspark.driver.host=127.0.0.1",
] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        classpath = build.build()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    out = build.out_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java"] + JVM_OPTS + [f"-Djava.io.tmpdir={tmp}", "-cp", classpath, "repro.perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace, "--out", out])
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(out, "spark-local"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, env=env,
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = [line for line in stdout.splitlines() if line.strip()]
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        print(f"perfbench: benchmark JVM exited with code {proc.returncode}", file=sys.stderr)
        return 4
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"perfbench: malformed result line: {lines[-1]}", file=sys.stderr)
        return 4
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
