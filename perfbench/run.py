#!/usr/bin/env python3
"""End-to-end benchmark of the SPNL partitioner (see perfbench/README.md).

    python3 perfbench/run.py --workload par-m3|serve-mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the program and the
benchmark's own tools into $CARGO_TARGET_DIR (default .bench_build); inputs
and outputs live in .bench_data/ and are removed when the run ends. The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end metrics, measured with no
tracing; with --trace 1 they are the per-layer metrics of the traced ledger.
"""

import argparse
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

PAR_K = 32
PAR_THREADS = 3
PAR_ECR_TOLERANCE = 0.05  # paper Sec. V-B: parallel ECR stays near sequential
# serve-mixed runs in slices: a set-up (conversions and a fresh server), then
# closed-loop session rounds for this many seconds, then a server drain.
SERVE_SLICE_S = 8.0
UNTRACED_PAR_ROUNDS = 3  # the traced run's baseline for trace.overhead_pct
WORKLOADS = ("par-m3", "serve-mixed")
# serve-mixed tenants: (name, graph variant, K). The harness takes this list
# as its --tenants flag; the graph of a variant is <variant>.sadj.
TENANTS = (("ordered_k32", "ordered", 32), ("random_k32", "random", 32),
           ("ordered_k8", "ordered", 8))
TENANTS_FLAG = "--tenants=" + ",".join("%s:%s:%d" % t for t in TENANTS)
# One traced pass runs 3 sequential jobs, the parallel job, the in-process
# random job and one session per tenant.
TRACE_PASS_OPS = 5 + len(TENANTS)

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
DATA = os.path.join(".bench_data", "run")


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def tool(name):
    return os.path.join(BUILD, "tools", name)


def bench_tool(name):
    return os.path.join(BUILD, name)


def data(name):
    return os.path.join(DATA, name)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise BenchError("no SPNL sources here: run from the root of a checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


class Proc:
    """One finished program process: wall time from spawn to exit, and its
    user+system CPU and peak RSS from wait4. Standard error is merged into
    the captured output."""

    def __init__(self, argv):
        start = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            self.stdout = p.stdout.read().decode()
        except BaseException:  # SIGTERM or ^C: end the child before unwinding
            p.kill()
            os.wait4(p.pid, 0)
            raise
        finally:
            p.stdout.close()
        # Reaped here rather than by Popen.wait, so wait4 reports the
        # child's resource use.
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = time.perf_counter() - start
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        if self.returncode != 0:
            log("command failed (%d): %s\n%s" % (self.returncode, " ".join(argv),
                                                 self.stdout))

    def field(self, key, kind=int):
        """The number after `key=` in the program's output."""
        for token in self.stdout.split():
            if token.startswith(key + "="):
                return kind(token[len(key) + 1:].rstrip("s"))
        raise BenchError("no %s= in output: %s" % (key, self.stdout))


def run_ok(argv):
    proc = Proc(argv)
    if proc.returncode != 0:
        raise BenchError("set-up command failed: " + " ".join(argv))
    return proc


def generate(variant, seed):
    """Writes <variant>.adj; returns its vertex count."""
    return run_ok([bench_tool("perfbench_graph"), "gen", "--variant=" + variant,
                   "--seed=%d" % seed, "--out=" + data(variant + ".adj")]).field("V")


def convert(variant):
    return run_ok([tool("spnl_convert"), data(variant + ".adj"),
                   "--out=" + data(variant + ".sadj"), "--quiet"]).wall_s


def partition_argv(variant, k, route, threads=1):
    argv = [tool("spnl_partition"), data(variant + ".sadj"), "--format=sadj",
            "--stream", "--k=%d" % k, "--out=" + route]
    if threads > 1:
        argv.append("--threads=%d" % threads)
    return argv


class Server:
    """spnl_server on a unix socket in the data directory."""

    def __init__(self):
        self.path = data("spnl.sock")
        self.log = open(data("server.log"), "wb")
        self.proc = subprocess.Popen(
            [tool("spnl_server"), "--listen=unix:" + self.path],
            stdout=subprocess.PIPE, stderr=self.log)
        self.usage = None
        self.returncode = None

    def reap(self, block):
        """Collects the exit status and resource use once the server ends."""
        if self.usage is None:
            pid, status, usage = os.wait4(self.proc.pid, 0 if block else os.WNOHANG)
            if pid != 0:
                self.usage = usage
                self.returncode = os.waitstatus_to_exitcode(status)
                self.proc.returncode = self.returncode
        return self.usage is not None

    def wait_ready(self, timeout=60.0):
        """Returns once the server has accepted a first connection."""
        deadline = time.monotonic() + timeout
        line = b""
        while not line.startswith(b"listening on"):
            left = deadline - time.monotonic()
            if left <= 0 or self.reap(block=False):
                raise BenchError("spnl_server did not start")
            if select.select([self.proc.stdout], [], [], left)[0]:
                line = self.proc.stdout.readline()
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(self.path)
        finally:
            probe.close()

    def stop(self):
        """SIGTERM (a graceful drain), then reap; returns the exit code."""
        if not self.reap(block=False):
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 20.0
            while not self.reap(block=False):
                if time.monotonic() > deadline:
                    self.proc.kill()
                    self.reap(block=True)
                    break
                time.sleep(0.02)
        self.proc.stdout.close()
        self.log.close()
        return self.returncode


class Checks:
    """Collects checker jobs (perfbench_graph check) and runs them at once."""

    def __init__(self, seed):
        self.seed = seed
        self.lines = []
        self.errors = []

    def route(self, variant, k, path, cut=None, edges=None, extra=0):
        self.lines.append("route %s %d %d %s %s %s" % (
            variant, k, extra, path, "-" if cut is None else cut,
            "-" if edges is None else edges))

    def same(self, a, b):
        self.lines.append("same %s %s" % (a, b))

    def fail(self, message):
        log("check failed: " + message)
        self.errors.append(message)

    def run(self):
        """Runs the checker; returns {route path: (cut, edges)}."""
        jobs = data("checks.txt")
        with open(jobs, "w") as f:
            f.write("\n".join(self.lines) + "\n")
        proc = Proc([bench_tool("perfbench_graph"), "check",
                     "--seed=%d" % self.seed, jobs])
        counts = {}
        for line in proc.stdout.splitlines():
            if line.startswith("FAIL"):
                self.fail(line)
            elif line.startswith("ok route"):
                words = line.split()
                fields = dict(w.split("=", 1) for w in words[3:])
                counts[words[2]] = (int(fields["cut"]), int(fields["E"]))
        if proc.returncode != 0 and not self.errors:
            self.fail("checker exited %d" % proc.returncode)
        return counts

    def ok(self):
        return not self.errors


def timed_rounds(seconds, round_fn):
    """Runs whole rounds until `seconds` have passed (at least one)."""
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(round_fn(len(rounds)))
    return rounds


def summarize(rounds, records_per_round, cut, edges, peak_rss_mb, setup_s):
    """End-to-end metrics from per-round (wall_s, cpu_s) pairs."""
    return {
        "records_per_s": {"value": statistics.median(
            records_per_round / w for w, _ in rounds), "unit": "records/s"},
        "cpu_s": {"value": statistics.median(c for _, c in rounds), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "ecr": {"value": cut / edges, "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


class Run:
    def __init__(self, args):
        self.args = args
        self.checks = Checks(args.seed)
        self.attempted = 0
        self.failed = 0
        self.server = None

    # -- shared pieces ----------------------------------------------------

    def cli_job(self, argv):
        """One timed program process; a failed one is counted, not raised."""
        self.attempted += 1
        proc = Proc(argv)
        if proc.returncode != 0:
            self.failed += 1
            return None
        return proc

    def par_round(self, index, printed):
        route = data("par_r%d.route" % index)
        proc = self.cli_job(partition_argv("ordered", PAR_K, route, PAR_THREADS))
        if proc is None:
            return None
        cut, edges = proc.field("cut"), proc.field("E")
        self.checks.route("ordered", PAR_K, route, cut, edges, extra=PAR_THREADS)
        printed.append((route, cut, edges))
        return proc.wall_s, proc.cpu_s, proc.rss_mb, cut, edges

    def check_par_quality(self, printed, counts):
        """Run-level parallel ECR against an untimed sequential run."""
        ref = counts.get(data("par_ref_k%d.route" % PAR_K))
        if ref is None or not printed:
            return
        cut = sum(counts[r][0] for r, _, _ in printed if r in counts)
        edges = sum(counts[r][1] for r, _, _ in printed if r in counts)
        if edges == 0:
            return
        par_ecr, seq_ecr = cut / edges, ref[0] / ref[1]
        log("par-m3: parallel ECR %.4f, sequential ECR %.4f" % (par_ecr, seq_ecr))
        if abs(par_ecr - seq_ecr) > PAR_ECR_TOLERANCE:
            self.checks.fail("parallel ECR %.4f is not within %.2f of sequential %.4f"
                             % (par_ecr, PAR_ECR_TOLERANCE, seq_ecr))

    def reference(self, variant, k, route):
        """An untimed sequential spnl_partition run, checked like any other."""
        proc = Proc(partition_argv(variant, k, route))
        if proc.returncode != 0:
            self.checks.fail("reference run failed: K=%d on %s" % (k, variant))
            return
        self.checks.route(variant, k, route, proc.field("cut"), proc.field("E"))

    def start_server(self):
        self.server = Server()
        self.server.wait_ready()

    def stop_server(self):
        code = self.server.stop()
        if code != 0:
            self.checks.fail("spnl_server exited %d after its drain" % code)
        return self.server.usage

    def loadgen(self, seconds, routes_dir):
        """Runs the load generator; returns its parsed result, or None when
        it failed (every session of its round counted as failed)."""
        os.makedirs(routes_dir, exist_ok=True)
        proc = Proc([bench_tool("perfbench_harness"), "loadgen",
                     "--socket=unix:" + self.server.path,
                     "--server-pid=%d" % self.server.proc.pid,
                     "--seconds=%s" % seconds, "--graphs=" + DATA, TENANTS_FLAG,
                     "--routes=" + routes_dir])
        if proc.returncode != 0:
            self.attempted += len(TENANTS)
            self.failed += len(TENANTS)
            self.checks.fail("the load generator failed")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.attempted += result["sessions"]
        self.failed += result["failed"]
        if result["mismatched"]:
            self.checks.fail("%d session routes differ from their tenant's first"
                             % result["mismatched"])
        return result

    def check_sessions(self, routes_dir, refs):
        for name, variant, k in TENANTS:
            self.checks.same(os.path.join(routes_dir, name + ".route"), refs[name])

    # -- untraced workloads ------------------------------------------------

    def par_m3(self):
        vertices = generate("ordered", self.args.seed)
        setups, printed = [], []

        def round_fn(index):
            setups.append(convert("ordered"))
            return self.par_round(index, printed)
        rounds = timed_rounds(self.args.seconds, round_fn)
        good = [r for r in rounds if r is not None]
        self.reference("ordered", PAR_K, data("par_ref_k%d.route" % PAR_K))
        self.check_par_quality(printed, self.checks.run())
        if not good:
            self.checks.fail("every spnl_partition round failed")
            return {}
        return summarize([(w, c) for w, c, _, _, _ in good], vertices,
                         sum(r[3] for r in good), sum(r[4] for r in good),
                         max(r[2] for r in good), statistics.median(setups))

    def serve_setup(self):
        """Converts both graphs and starts the server; returns its seconds."""
        start = time.perf_counter()
        convert("ordered")
        convert("random")
        self.start_server()
        return time.perf_counter() - start

    def serve_references(self):
        refs = {}
        for name, variant, k in TENANTS:
            refs[name] = data("ref_%s.route" % name)
            self.reference(variant, k, refs[name])
        return refs

    def serve_mixed(self):
        generate("ordered", self.args.seed)
        generate("random", self.args.seed)
        setups, rounds, peak_rss_mb, results = [], [], 0.0, []

        def slice_fn(index):
            setups.append(self.serve_setup())
            routes_dir = data("sessions_%d" % index)
            result = self.loadgen(SERVE_SLICE_S, routes_dir)
            usage = self.stop_server()
            return routes_dir, result, usage
        for routes_dir, result, usage in timed_rounds(self.args.seconds, slice_fn):
            peak_rss_mb = max(peak_rss_mb, usage.ru_maxrss / 1024.0)
            if result is not None:
                results.append((routes_dir, result))
        if not results:
            return {}
        refs = self.serve_references()
        for routes_dir, result in results:
            self.check_sessions(routes_dir, refs)
            rounds += [(r["wall_s"], r["cpu_s"]) for r in result["rounds"]]
        counts = self.checks.run()
        cut = edges = 0
        for name, _, _ in TENANTS:
            ref_cut, ref_edges = counts.get(data("ref_%s.route" % name), (0, 1))
            cut += ref_cut
            edges += ref_edges
        # Every session's route equals its tenant's reference route (checked
        # above), so the run's ECR is the references' ECR.
        return summarize(rounds, results[0][1]["records_per_round"], cut, edges,
                         peak_rss_mb, statistics.median(setups))

    # -- traced ledger ------------------------------------------------------

    def untraced_baseline(self):
        """The median untraced time of the span the traced ledger compares
        against: the parallel job's own PT= for par-m3, the session round
        for serve-mixed. None if those rounds failed."""
        if self.args.workload == "par-m3":
            times = []
            for i in range(UNTRACED_PAR_ROUNDS):
                route = data("untraced_r%d.route" % i)
                proc = self.cli_job(partition_argv("ordered", PAR_K, route, PAR_THREADS))
                if proc is not None:
                    self.checks.route("ordered", PAR_K, route, proc.field("cut"),
                                      proc.field("E"), extra=PAR_THREADS)
                    times.append(proc.field("PT", float))
            return statistics.median(times) if times else None
        routes_dir = data("untraced_sessions")
        result = self.loadgen(2.0, routes_dir)
        if result is None:
            return None
        for name, variant, k in TENANTS:
            self.checks.same(os.path.join(routes_dir, name + ".route"),
                             data("trace_session_%s.route" % name))
        return statistics.median(r["wall_s"] for r in result["rounds"])

    def trace(self):
        generate("ordered", self.args.seed)
        generate("random", self.args.seed)
        self.serve_setup()
        untraced = self.untraced_baseline()
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < self.args.seconds:
            proc = Proc([bench_tool("perfbench_harness"), "trace",
                         "--socket=unix:" + self.server.path, "--graphs=" + DATA,
                         TENANTS_FLAG, "--routes=" + DATA])
            self.attempted += TRACE_PASS_OPS
            if proc.returncode != 0:
                self.failed += TRACE_PASS_OPS
                self.checks.fail("a traced pass failed")
                break
            passes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        self.stop_server()
        if not passes:
            return {}
        for r in passes[-1]["routes"]:
            extra = PAR_THREADS if "_par_" in r["path"] else 0
            self.checks.route(r["variant"], r["k"], r["path"], r["cut"], r["edges"],
                              extra)
        self.checks.same(data("trace_session_ordered_k32.route"),
                         data("trace_seq_k32.route"))
        self.checks.same(data("trace_session_ordered_k8.route"),
                         data("trace_seq_k8.route"))
        self.checks.same(data("trace_session_random_k32.route"),
                         data("trace_inproc_random_k32.route"))
        self.checks.run()

        metrics = {}
        for name in passes[0]["metrics"]:
            metrics[name] = statistics.median(p["metrics"][name] for p in passes)
        pass_s = statistics.median(p["pass_s"] for p in passes)
        attributed = statistics.median(p["attributed_s"] for p in passes)
        metrics["trace.unattributed_pct"] = (pass_s - attributed) / pass_s * 100.0
        key = "par_partition_s" if self.args.workload == "par-m3" else "serve_round_s"
        traced = statistics.median(p[key] for p in passes)
        if untraced is not None:
            metrics["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
        log("traced %s %.3fs vs untraced %.3fs; pass %.3fs, attributed %.3fs"
            % (key, traced, untraced or float("nan"), pass_s, attributed))
        return {name: {"value": value, "unit": unit_of(name)}
                for name, value in sorted(metrics.items())}

    def execute(self):
        if self.args.trace:
            return self.trace()
        return {"par-m3": self.par_m3,
                "serve-mixed": self.serve_mixed}[self.args.workload]()

    def close(self):
        if self.server is not None:
            self.server.stop()


def unit_of(name):
    if "_ns_per_rec" in name:
        return "ns/record"
    if name.endswith("_pct"):
        return "%"
    if name.startswith("core.footprint_mb"):
        return "MB"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # A SIGTERM unwinds through the finally below, which stops the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    build()
    shutil.rmtree(DATA, ignore_errors=True)
    os.makedirs(DATA)
    run = Run(args)
    try:
        metrics = run.execute()
    finally:
        run.close()
        shutil.rmtree(DATA, ignore_errors=True)
    print(json.dumps({"correct": run.checks.ok(), "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
