#!/usr/bin/env python3
"""End-to-end benchmark of the ultrawiki expansion server and offline build.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ret-hot --seed 1 --seconds 10 --trace 0

It builds `ultrawiki` and the `perfbench` helper in release mode, starts and
stops every process it measures, and prints one JSON object as the last line
of stdout. `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer metrics of the separate traced run. Exits non-zero if any output
check fails. See perfbench/README.md for the metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import socket
import statistics
import subprocess
import sys
import time
import urllib.request

ROOT = os.getcwd()
OUT = os.path.join(ROOT, "perfbench", "out")
TARGET = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
ULTRAWIKI = os.path.join(TARGET, "release", "ultrawiki")
PERFBENCH = os.path.join(TARGET, "release", "perfbench")

# Rates, limits and request streams live in perfbench/src/workload.rs. The
# serve workloads share one `small` snapshot; `build` serves the `tiny`
# snapshot it builds.
WORKLOADS = ["ret-hot", "ret-cold", "gen-cold", "build"]
METHODS = "retexpan,genexpan"
# Server boots per serve run; setup_s is their median.
BOOTS = 3
# Builds per `build` run; they must produce identical bytes.
BUILDS = 2
# Pinned so the build time does not follow the host's core count; the
# bytes are the same at any value.
BUILD_THREADS = 2
# Share of --seconds spent in the open loop; the closed loop gets the rest.
OPEN_SHARE = 0.6


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cargo(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    subprocess.run(["cargo", "build", "--release", "--offline", "-q", *args],
                   cwd=ROOT, env=env, check=True, stdout=sys.stderr)


def build_binaries():
    cargo("-p", "ultrawiki", "--bin", "ultrawiki")
    cargo("--manifest-path", os.path.join("perfbench", "Cargo.toml"))


def build_index(profile, out):
    """Runs `ultrawiki build-index`; returns (wall seconds, peak RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([ULTRAWIKI, "build-index", "--profile", profile, "--methods", METHODS,
                             "--threads", str(BUILD_THREADS), "--out", out],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"build-index --profile {profile} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def cached_small_snapshot():
    """The `small` snapshot every serve workload shares, built once per
    ultrawiki binary and kept outside every timed window."""
    with open(ULTRAWIKI, "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(OUT, f"small-{key}.usnp")
    if not os.path.exists(path):
        log("building the small snapshot (once per binary)...")
        build_index("small", path + ".tmp")
        os.replace(path + ".tmp", path)
    return path


def fingerprint(path):
    with open(path, "rb") as f:
        data = f.read()
    return data, hashlib.sha256(data).hexdigest()[:16]


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def healthy(port):
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=2) as r:
            return r.status == 200
    except OSError:
        return False


class Server:
    """`ultrawiki serve --snapshot` with its default workers, queue and cache."""

    def __init__(self, snapshot):
        self.port = free_port()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([ULTRAWIKI, "serve", "--snapshot", snapshot,
                                      "--port", str(self.port)],
                                     stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = t0 + 120
        while not healthy(self.port):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("server did not become healthy")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def cpu_s(self):
        """User plus system CPU time the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def boot(snapshot, times):
    """Boots `times` servers one after another; returns the last, still
    running, and the median time to the first healthy answer."""
    setups = []
    for i in range(times):
        server = Server(snapshot)
        setups.append(server.setup_s)
        if i + 1 < times:
            server.stop()
    return server, statistics.median(setups)


def perfbench(cmd, workload, seed, snapshot, *extra):
    args = [PERFBENCH, cmd, "--workload", workload, "--seed", str(seed), "--snapshot", snapshot,
            *extra]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise RuntimeError(f"perfbench {cmd} failed with exit code {proc.returncode}")
    return json.loads(lines[-1]), proc.returncode == 0


def load(workload, seed, snapshot, server, seconds, serial=False):
    extra = ["--addr", f"127.0.0.1:{server.port}",
             "--open-secs", str(seconds * OPEN_SHARE),
             "--closed-secs", str(seconds * (1 - OPEN_SHARE))]
    if serial:
        extra.append("--serial")
    report, ok = perfbench("load", workload, seed, snapshot, *extra)
    phases = ["warmup", "open", "closed"] + (["serial"] if serial else [])
    for p in phases:
        log(f"  {p:7s} sent {report[p + '.sent']:6d}  ok {report[p + '.ok']:6d}  "
            f"failed {report[p + '.failed']}")
    log(f"  open loop: n={report['open.n']} tail=p{report['open.tail_pct']:g} "
        f"late p50 {report['open.late_p50_ms']:.3f} ms p99 {report['open.late_p99_ms']:.3f} ms "
        f"max backlog {report['open.backlog_ms']:.1f} ms -> "
        f"{'valid' if report['open.valid'] else 'INVALID: generator missed its schedule'}")
    log(f"  checks: {report['check.repeats']} repeats compared, "
        f"{report['check.verified']} bodies recomputed in-process, "
        f"{report['check.mismatches']} mismatches")
    attempted = sum(report[p + ".sent"] for p in phases)
    failed = sum(report[p + ".failed"] for p in phases)
    return report, ok, attempted, failed


def end_to_end(workload, seed, seconds):
    if workload == "build":
        builds = []
        for i in range(BUILDS):
            path = os.path.join(OUT, f"build-{i}.usnp")
            wall, rss = build_index("tiny", path)
            data, fp = fingerprint(path)
            builds.append((wall, rss, data, fp))
            log(f"  build {i}: {wall:.3f} s, peak RSS {rss:.1f} MB, sha256 {fp}")
        identical = all(b[2] == builds[0][2] for b in builds)
        log(f"  builds byte-identical: {identical}; fingerprint {builds[0][3]}")
        snapshot = os.path.join(OUT, "build-0.usnp")
        server, boot_s = boot(snapshot, 1)
        log(f"  server on the built snapshot healthy after {boot_s:.3f} s")
        setup_s = statistics.median(b[0] for b in builds)
        peak = max(b[1] for b in builds)
        correct = identical
    else:
        snapshot = cached_small_snapshot()
        log(f"  snapshot {os.path.basename(snapshot)} sha256 {fingerprint(snapshot)[1]}")
        server, setup_s = boot(snapshot, BOOTS)
        correct = True
    try:
        cpu0 = server.cpu_s()
        report, ok, attempted, failed = load(workload, seed, snapshot, server, seconds)
        cpu_us = (server.cpu_s() - cpu0) / attempted * 1e6
        if workload != "build":
            peak = server.peak_rss_mb()
    finally:
        server.stop()
    log(f"  also, per-layer under --trace 1: tail_ms {report['open.tail_ms']:.4f} (p{report['open.tail_pct']:g}), "
        f"throughput_rps {report['closed.throughput_rps']:.1f}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "p50_ms": (report["open.p50_ms"], "ms"),
        "slo_ok_ratio": (report["open.slo_ok_ratio"], "ratio"),
        "server_cpu_us": (cpu_us, "us"),
        "peak_rss_mb": (peak, "MB"),
    }
    return metrics, correct and ok, attempted, failed


def traced(workload, seed, seconds):
    ref = os.path.join(OUT, "trace-ref.usnp")
    build_s, _ = build_index("tiny", ref)
    snapshot = ref if workload == "build" else cached_small_snapshot()
    server, _ = boot(snapshot, 1)
    try:
        http, ok, attempted, failed = load(workload, seed, snapshot, server, seconds, serial=True)
    finally:
        server.stop()
    spans = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
    tr, trace_ok = perfbench("trace", workload, seed, snapshot, "--build-ref", ref,
                             "--build-out", os.path.join(OUT, "trace-rebuild.usnp"),
                             "--spans", spans)
    log(f"  spans written to {os.path.relpath(spans, ROOT)} ({tr['trace.spans']} spans)")
    values = dict(tr)
    values["net.connect_us"] = http["open.connect_p50_us"]
    values["loadgen.late_ms"] = http["open.late_p99_ms"]
    values["loadgen.tail_ms"] = http["open.tail_ms"]
    values["loadgen.throughput_rps"] = http["closed.throughput_rps"]
    http_us = http["serial.mean_us"]
    values["attr.inproc_share"] = tr["attr.inproc_mean_us"] / http_us
    values["attr.residual_us"] = http_us - tr["attr.inproc_mean_us"]
    values["build.attributed_share"] = tr["build.phase_sum_ms"] / (build_s * 1e3)
    log(f"  attribution: HTTP {http_us:.1f} us/request, in-process layers "
        f"{tr['attr.inproc_mean_us']:.1f} us ({values['attr.inproc_share']:.1%}), residual "
        f"{values['attr.residual_us']:.1f} us; tracing overhead x{tr['trace.overhead_ratio']:.3f}")
    log(f"  build: build-index {build_s:.3f} s, phases {tr['build.phase_sum_ms'] / 1e3:.3f} s "
        f"({values['build.attributed_share']:.1%}), fingerprint {tr['build.fingerprint']}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        per_layer = json.load(f)["per_layer"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in per_layer}
    return metrics, ok and trace_ok, attempted, failed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: run from the root of an ultrawiki source checkout")
    os.makedirs(OUT, exist_ok=True)
    build_binaries()
    log(f"{a.workload} seed={a.seed} seconds={a.seconds:g} trace={a.trace}")
    run = traced if a.trace else end_to_end
    metrics, correct, attempted, failed = run(a.workload, a.seed, a.seconds)
    for name, (value, unit) in metrics.items():
        log(f"  {name:28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
