#!/usr/bin/env python3
"""The xfrag serving benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1 [--toy]

Run from the root of a source checkout.  It builds `xfrag` and the
benchmark's own OCaml half (perfbench/xbench.exe) from source, generates
the workload's inputs from the seed, boots the real `xfrag serve` on
them with default flags (only the port is chosen, ephemeral), and
drives it from a separate load-generator process: closed-loop clients,
each on one keep-alive connection, one per server worker (one per CPU
in the traced run).  Every answer is checked.

With --trace 0 the last line of stdout holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics, from the same HTTP run
plus a traced single-threaded replay of the seeded request sequence
(see perfbench/replay.ml).  The line before it is a report with the
provenance, sample counts and the details behind every number.
--toy shrinks every input so that all workloads run in seconds (the
benchmark's own self-test, perfbench/selftest.py, uses it).

Workloads, metrics and the layer map are described in
perfbench/DESIGN.md.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("doc-query", "corpus-query", "corpus-churn")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
XFRAG = os.path.join("_build", "default", "bin", "xfrag.exe")
XBENCH = os.path.join("_build", "default", "perfbench", "xbench.exe")

# Server boots per run; setup_s is their median.  They are spread over
# the run: three before the server that takes the load, that one, and
# three after it, so that they do not all see the host in one state.
# The write probe runs one part on each of these servers.
BOOTS_BEFORE, BOOTS_AFTER = 3, 3
PROBE_PARTS = BOOTS_BEFORE + 1 + BOOTS_AFTER
# Warm-up before the measured window: the join cache fills and the
# server's lazily created shard pool starts.
WARMUP_S = 2.0
# Events replayed in-process by the traced run, per workload: untraced
# warm-up events (about as many as the HTTP warm-up serves), then traced
# ones.
REPLAY_EVENTS = {"doc-query": (1000, 800), "corpus-query": (400, 400),
                 "corpus-churn": (400, 400)}
# Everything after the build must finish within this many seconds.
RUN_BUDGET_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def quantile(values, q):
    """Nearest-rank quantile (the same rule the OCaml half uses)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s) - 1e-9) - 1)]


def build(env):
    cmd = ["dune", "build", "--root", ".", "./bin/xfrag.exe", "./perfbench/xbench.exe"]
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        die("build failed", 1)


def http_get(port, path, timeout=10.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


class Server:
    """`xfrag serve` on the generated files, with default flags.  Its
    stderr, where the default access log goes, is kept in [log]."""

    def __init__(self, files, log):
        self.log = log
        self.t0 = time.monotonic()
        with open(log, "w") as err:
            self.proc = subprocess.Popen(
                [XFRAG, "serve", "--port", "0"] + files,
                stdout=subprocess.PIPE, stderr=err, text=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError("server did not start: %r" % line)
        self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
        self.workers = int(line.split("(", 1)[1].split()[0])
        while True:
            try:
                if http_get(self.port, "/healthz", timeout=5.0)[0] == 200:
                    break
            except OSError:
                pass
            if time.monotonic() - self.t0 > 60:
                self.stop()
                raise RuntimeError("server never became healthy")
            time.sleep(0.002)
        self.setup_s = time.monotonic() - self.t0

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def prometheus_value(page, name):
    for line in page.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def source_digest():
    h = hashlib.sha256()
    for top in ("bin", "lib", "perfbench", "dune-project"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(top)
            if not any(p.startswith((".", "_")) for p in d.split(os.sep)[1:])
            for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(args, gen_info):
    commit = ""
    if os.path.exists(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, text=True).stdout.strip()
        except OSError:
            pass
    return {
        "commit": commit or "unknown (not a git checkout)",
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml": gen_info["ocaml"],
        "xfrag_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("XFRAG_")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": "toy" if args.toy else "full",
        "inputs": gen_info["sizes"],
    }


def end_to_end(load, probes, boots, rss_mb):
    """Every end-to-end metric, as (value, unit, sample count).  [load]
    is the measured window, [probes] the parts of the write probe."""

    def write_ms(phase):
        return [s[2] / 1e6 for s in phase["samples"] if s[0] != 0 and s[4] in (1, 2) and s[3]]

    reads = [s[2] / 1e6 for s in load["samples"] if s[0] == 0 and s[4] == 1 and s[3]]
    # Write latency is measured in bursts: the probe's parts, or the
    # window of corpus-churn.  Each burst is short enough to fall into
    # one of the host's slow or fast spells, so the write median is the
    # median of the bursts' medians.
    bursts = [w for w in map(write_ms, probes + [load]) if w]
    writes = sum(bursts, [])
    if not reads or not writes:
        raise RuntimeError("no successful reads or writes were measured")
    return {
        "setup_s": (statistics.median(boots), "s", len(boots)),
        "read_qps": (len(reads) / load["window_s"], "1/s", len(reads)),
        "read_p50_ms": (quantile(reads, 0.5), "ms", len(reads)),
        "read_p99_ms": (quantile(reads, 0.99), "ms", len(reads)),
        "read_p995_ms": (quantile(reads, 0.995), "ms", len(reads)),
        "write_p50_ms": (statistics.median(quantile(w, 0.5) for w in bursts), "ms", len(writes)),
        "write_p95_ms": (quantile(writes, 0.95), "ms", len(writes)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "failed_frac": (load["failed"] / load["attempted"], "ratio", load["attempted"]),
    }


def handle_ns_by_id(log):
    """Router.handle time per request id, from the server's access log."""
    out = {}
    with open(log) as f:
        for line in f:
            if line.startswith("{"):
                try:
                    entry = json.loads(line)
                    out[entry["id"]] = entry["total_ns"]
                except (ValueError, KeyError):
                    pass
    return out


def per_layer(args, load, replay, access_log, metrics_page, e2e):
    m = dict(replay["metrics"])
    handle = handle_ns_by_id(access_log)
    transport = [(s[2] - handle[s[6]]) / 1e6 for s in load["samples"]
                 if s[0] == 0 and s[4] == 1 and s[3] and s[6] in handle]
    runs = load["shard_runs"]
    m["server.transport_p50_ms"] = quantile(transport, 0.5)
    m["server.transport_p99_ms"] = quantile(transport, 0.99)
    m["server.transport_p995_ms"] = quantile(transport, 0.995)
    # The client's view of the tail with one client per CPU, where the
    # keep-alive stall shows (see main).
    m["client.read_p99_ms"] = e2e["read_p99_ms"][0]
    m["client.read_p995_ms"] = e2e["read_p995_ms"][0]
    m["client.write_p95_ms"] = e2e["write_p95_ms"][0]
    m["server.shed"] = prometheus_value(metrics_page, "server_shed")
    m["server.reconnects"] = float(load["reconnects"])
    waits = prometheus_value(metrics_page, "corpus_writer_wait_ns_count")
    m["server.writer_wait_ms"] = (
        prometheus_value(metrics_page, "corpus_writer_wait_ns_sum") / waits / 1e6 if waits else 0.0)
    m["corpus.shard_skew"] = (
        statistics.mean(mx / (tot / n) for (_, tot, mx, n) in runs if tot > 0) if runs else 0.0)
    m["shard_pool.busy_frac"] = (
        sum(tot for (_, tot, _, _) in runs) / sum(n * el for (el, _, _, n) in runs) if runs else 0.0)
    # The engine term is the server's own Eval.exec / Corpus.run time for
    # the measured reads (from their answers): the replay runs a corpus
    # query's shards one after the other, the server in parallel.
    engine = "eval.exec" if args.workload == "doc-query" else "corpus.run"
    layers_ms = {
        "server.transport": m["server.transport_p50_ms"],
        "router.self": m["router.self_us"] / 1e3,
        "exec.decode": m["exec.decode_us"] / 1e3,
        engine + " (server)": quantile(load["engine_ns"], 0.5) / 1e6,
    }
    read_p50_ms = e2e["read_p50_ms"][0]
    m["unattributed_ms"] = read_p50_ms - sum(layers_ms.values())
    attribution = dict(layers_ms, unattributed=m["unattributed_ms"], read_p50=read_p50_ms)
    counts = {"transport_samples": len(transport), "engine_samples": len(load["engine_ns"]),
              "shard_runs": len(runs),
              "replayed_operations": replay["operations"], "spans": replay["spans"]}
    return m, attribution, counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--toy", action="store_true", help="toy-size inputs, for the self-test")
    args = ap.parse_args()

    for need in ("dune-project", os.path.join("bin", "xfrag.ml"), os.path.join("lib", "core")):
        if not os.path.exists(need):
            die("run this from the root of an xfrag source checkout (missing %s)" % need)
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)

    # Wall time of each phase of the run, for the report.
    phase_s = {}
    mark = [time.monotonic()]

    def lap(name):
        now = time.monotonic()
        phase_s[name] = phase_s.get(name, 0.0) + now - mark[0]
        mark[0] = now

    env = dict(os.environ, DUNE_CACHE="disabled")
    build(env)
    lap("build")
    deadline = time.monotonic() + RUN_BUDGET_S

    def remaining():
        return max(1.0, deadline - time.monotonic())

    scale = "toy" if args.toy else "full"
    # Closed-loop clients per HTTP phase.  The measured run has one per
    # server worker: with more connections than workers, a connection
    # waits for another's keep-alive run of up to 100 requests to end and
    # the read tail measures that queue.  The traced run has one per CPU,
    # so that the stall shows in its transport metrics.
    clients = []
    work = os.path.join(BENCH_DIR, ".work", "%s-%d-%s" % (args.workload, args.seed, scale))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", scale, "--dir", work]
    gen_info = json.loads(subprocess.run([XBENCH, "gen"] + common, check=True,
                                         stdout=subprocess.PIPE, text=True).stdout)
    docs = os.path.join(work, "docs")
    files = [os.path.join(docs, f) for f in sorted(os.listdir(docs))]
    lap("gen")

    boots = []
    probes = []
    read_only = args.workload != "corpus-churn"

    def boot(log="boot-stderr.log"):
        s = Server(files, os.path.join(work, log))
        boots.append(s.setup_s)
        lap("boots")
        return s

    def stop(s):
        s.stop()
        lap("boots")

    def drive(phase, server, part=None):
        clients.append(len(os.sched_getaffinity(0)) if args.trace else server.workers)
        name = phase if part is None else "%s%d" % (phase, part)
        extra = [] if part is None else ["--part", str(part), "--parts", str(PROBE_PARTS)]
        out = os.path.join(work, name + ".json")
        subprocess.run(
            [XBENCH, phase] + common + extra + [
                "--port", str(server.port), "--clients", str(clients[-1]),
                "--seconds", str(args.seconds),
                "--warmup", str(0.5 if args.toy else WARMUP_S), "--out", out],
            check=True, timeout=remaining())
        lap(name)
        with open(out) as f:
            return json.load(f)

    # The write probe of the read-only workloads runs in one part on each
    # server of the run: on the fresh ones right after boot, and on the
    # one that took the load after its window.  The write metrics then
    # see both server states, spread over the whole run rather than in a
    # burst of a few seconds.
    server = None
    try:
        for i in range(BOOTS_BEFORE + 1 + BOOTS_AFTER):
            loaded = i == BOOTS_BEFORE
            server = boot("server-stderr.log" if loaded else "boot-stderr.log")
            if loaded:
                load = drive("load", server)
                # Peak memory of the workload's own traffic, before the
                # probe's part on this server.
                rss_mb = server.peak_rss_mb()
            if read_only:
                probes.append(drive("probe", server, part=i))
            if loaded:
                _, metrics_page = http_get(server.port, "/metrics")
                access_log = server.log
            stop(server)
            server = None
    finally:
        if server is not None:
            server.stop()
    e2e = end_to_end(load, probes, boots, rss_mb)
    for extra in probes:
        for key in ("attempted", "failed", "mismatches", "reconnects"):
            load[key] += extra[key]
        load["failures"] += extra["failures"]
        load["samples"] += extra["samples"]

    correct = load["mismatches"] == 0
    report = {
        "provenance": provenance(args, gen_info),
        "clients": clients[-1],
        "setup_s_boots": boots,
        "attempted": load["attempted"],
        "failed": load["failed"],
        "failures": load["failures"][:10],
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
    }
    if args.trace:
        shards = max([r[3] for r in load["shard_runs"]] or [1])
        replay_env = dict(os.environ, XFRAG_SHARD_DOMAINS="0", XFRAG_SHARDS=str(shards))
        replay_out = os.path.join(work, "replay.json")
        warm, events = (n // (10 if args.toy else 1) for n in REPLAY_EVENTS[args.workload])
        subprocess.run([XBENCH, "replay"] + common + [
            "--clients", str(clients[-1]), "--warm", str(warm), "--events", str(events),
            "--out", replay_out],
            check=True, env=replay_env, timeout=remaining())
        with open(replay_out) as f:
            replay = json.load(f)
        lap("replay")
        layers, attribution, counts = per_layer(args, load, replay, access_log, metrics_page, e2e)
        correct = correct and replay["deterministic"] and replay["failures"] == 0
        report.update(per_layer=layers, attribution_ms=attribution, replay_counts=counts,
                      replay_shards=shards, replay_s=replay["replay_s"],
                      work_counters=replay["counters"], deterministic=replay["deterministic"])
        metrics = {e["name"]: {"value": layers[e["name"]], "unit": e["unit"]}
                   for e in spec["per_layer"]}
    else:
        metrics = {e["name"]: {"value": e2e[e["name"]][0], "unit": e["unit"]}
                   for e in spec["end_to_end"]}
    report["phase_s"] = phase_s
    with open(os.path.join(work, "report.json"), "w") as f:
        json.dump(report, f, indent=1)
    # Keep the report, the samples and the spans; drop the bulky inputs.
    shutil.rmtree(docs)
    for name in ("server-stderr.log", "boot-stderr.log", "replay-access.log"):
        if os.path.exists(os.path.join(work, name)):
            os.remove(os.path.join(work, name))
    print("perfbench report: " + json.dumps(report))
    print(json.dumps({"correct": bool(correct), "attempted": load["attempted"],
                      "failed": load["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
