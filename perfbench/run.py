#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. It builds the system and the
benchmark from source into .bench_build/ (CMake, Release), refuses to
start if an earlier run left ingress worker processes or /dev/shm
segments behind, runs one workload with the settings frozen in
perfbench/spec.json, and cleans up whatever the run started. The last
line of standard output is the result as one JSON object; the exit code
is 0 only when every output check passed. Workloads, metrics and how
they interact are documented in perfbench/spec.json.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SPEC = os.path.join(HERE, "spec.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
WORKER_NAME = "dchag_ingress_worker"
SHM_DIR = "/dev/shm"
SEGMENT = re.compile(r"^dchag_ing_(\d+)_")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def pid_alive(pid):
    return os.path.isdir("/proc/%d" % pid)


def worker_processes():
    """(pid, dispatcher pid) of every live ingress worker process."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % entry, "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue
        if not argv or not argv[0].decode(errors="replace").endswith(WORKER_NAME):
            continue
        ring = argv[1].decode(errors="replace").lstrip("/") if len(argv) > 1 else ""
        m = SEGMENT.match(ring)
        out.append((int(entry), int(m.group(1)) if m else -1))
    return out


def segments():
    """(name, creator pid) of every ingress shared-memory segment."""
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return []
    return [(n, int(SEGMENT.match(n).group(1))) for n in names if SEGMENT.match(n)]


def strays():
    """Workers and segments whose dispatcher process is gone."""
    found = ["worker process %d (dispatcher %d gone)" % (pid, disp)
             for pid, disp in worker_processes() if not pid_alive(disp)]
    found += ["%s/%s (creator %d gone)" % (SHM_DIR, name, pid)
              for name, pid in segments() if not pid_alive(pid)]
    return found


def sweep(dispatcher_pid):
    """Kills workers and unlinks segments a finished run left behind."""
    for pid, disp in worker_processes():
        if disp == dispatcher_pid:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    for name, pid in segments():
        if pid == dispatcher_pid:
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except OSError:
                pass


def source_revision():
    """The git commit when there is one, else a hash of the sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no system sources under %s/src; run from a full checkout" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "dchag_perfbench", WORKER_NAME, "perfbench_selftest"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail("build step %s failed: %s" % (" ".join(cmd), e))
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def clean_env():
    """The caller's environment minus every DCHAG_* variable, so none can
    change the measured program."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DCHAG_")}


def expected_metrics(trace):
    with open(BENCHMARK) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def run_workload(args):
    with open(SPEC) as f:
        spec = json.load(f)
    if args.workload not in spec["workloads"]:
        fail("unknown workload %r (have %s)" % (args.workload,
                                                ", ".join(spec["workloads"])))
    left = strays()
    if left:
        fail("refusing to start: an earlier run left these behind:\n  " +
             "\n  ".join(left) + "\nstop them (pkill -f '[d]chag_ingress_worker') "
             "and remove the segments, then run again")
    build()

    rates = spec["ingress_open"]
    work = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [os.path.join(BUILD, "dchag_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--worker-exe", os.path.join(BUILD, "dchag", "src", "ingress", WORKER_NAME),
           "--result-out", os.path.join(BUILD, "results", tag + ".json"),
           "--commit", source_revision(),
           "--light-rps", str(rates["light_rps"]),
           "--loaded-rps", str(rates["loaded_rps"]),
           "--ladder-rps", ",".join(str(r) for r in rates["ladder_rps"]),
           "--p99-limit-ms", str(rates["p99_limit_ms"])]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, "traces", tag + ".json")]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=clean_env(),
                            cwd=ROOT, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        out, code = "", None
    finally:
        # Everything the run started shares its process group: stop what is
        # left.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
        sweep(proc.pid)
        for f in os.listdir(work):
            os.unlink(os.path.join(work, f))
        os.rmdir(work)
    deadline = time.time() + 10
    while any(d == proc.pid for _, d in worker_processes()) and time.time() < deadline:
        time.sleep(0.05)
    if code is None:
        fail("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S), 1)

    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        names = list(result["metrics"])
    except (ValueError, KeyError, IndexError):
        fail("workload %s printed no result (exit code %s)" % (args.workload, code), 1)
    want = expected_metrics(args.trace)
    if sorted(names) != sorted(want):
        fail("result metrics %s do not match BENCHMARK.json %s" % (names, want), 1)
    print(lines[-1])
    sys.stdout.flush()
    return code


def selftest():
    build()
    codes = [subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode,
             subprocess.run([sys.executable, "-m", "unittest", "-v", "test_compare"],
                            cwd=os.path.join(HERE, "tests")).returncode]
    return 0 if all(c == 0 for c in codes) else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if not args.workload:
        fail("--workload is required")
    if args.seconds is None:
        with open(BENCHMARK) as f:
            args.seconds = json.load(f)["run_seconds"]
    sys.exit(run_workload(args))


if __name__ == "__main__":
    main()
