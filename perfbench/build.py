"""Build file of the benchmark: compiles the program's sources
(src/main/scala) together with the benchmark's (perfbench/src) into one
class directory, with the Scala compiler that ships in Spark's jars.

    python3 perfbench/build.py        # from the repository root

A build is skipped when a stamp of every source file and of the compiler
matches the last build. Output goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the repository root.
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class BuildError(Exception):
    pass


def out_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def spark_jars():
    """Spark's jar directory: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not os.path.isdir(jars):
        raise BuildError("Spark jars not found: set SPARK_HOME or put spark-submit on PATH")
    return jars


def _one(jars, pattern):
    found = sorted(glob.glob(os.path.join(jars, pattern)))
    if not found:
        raise BuildError(f"no {pattern} in {jars}")
    return found[-1]


def sources():
    program = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True))
    if not program:
        raise BuildError("program sources src/main/scala not found: run from a full checkout")
    bench = sorted(glob.glob(os.path.join(HERE, "src", "**", "*.scala"), recursive=True))
    return program + bench


def build():
    """Compile if stale; return the classpath to run the benchmark with."""
    jars = spark_jars()
    compiler = [_one(jars, p) for p in ("scala-compiler-2.13*.jar", "scala-library-2.13*.jar",
                                        "scala-reflect-2.13*.jar")]
    srcs = sources()
    h = hashlib.sha256()
    for path in compiler + srcs:
        h.update(os.path.relpath(path, ROOT).encode() if path.startswith(ROOT) else path.encode())
        if path.endswith(".scala"):
            with open(path, "rb") as f:
                h.update(f.read())
    stamp = h.hexdigest()
    out = out_dir()
    classes = os.path.join(out, "classes")
    stamp_file = os.path.join(out, "classes.stamp")
    classpath = classes + os.pathsep + os.path.join(jars, "*")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return classpath
    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    if os.path.exists(stamp_file):
        os.remove(stamp_file)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "-usejavacp",
           "-classpath", os.path.join(jars, "*"), "-d", classes] + srcs
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=800)
    if r.returncode != 0:
        raise BuildError(f"scalac failed with exit code {r.returncode}")
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return classpath


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"perfbench build: {e}", file=sys.stderr)
        sys.exit(2)
