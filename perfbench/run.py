"""The serving benchmark: one workload against real ``repro serve`` processes.

::

    python3 perfbench/run.py --workload light --seed 1 --seconds 20 --trace 0

Starts ``repro serve`` over the prefitted ``small`` store (prepared once
per program-source hash by ``prepare.py``, never timed), drives it through
``repro.client.ExpansionClient`` in a closed loop, checks every reply, and
prints as its last stdout line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The full report (provenance, the result of
every check, host-speed reference, failure reasons) is the line before it
and is also written under ``.bench_build/perfbench/results/``.  Exits 1
when a check fails and 2 when the program cannot be prepared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from prepare import (
    CACHE_ROOT,
    DATASET_SEED,
    PROFILE,
    QUERY_SET_SEED,
    ROOT,
    SINGLE_THREAD_ENV,
    SRC,
    PrepareError,
    ensure_prepared,
)

#: spawns per run; ``setup_s`` is their median.  The first one serves; the
#: others start and stop between timed segments, so that the spawns sample
#: the host over the whole run (start-up speed drifts in modes that last
#: tens of seconds) and never overlap timed traffic.
SETUP_SPAWNS = 7
#: host-probe readings taken just before and just after each spawn.
SPAWN_PROBES = 5
#: untraced runs split the timed phase into this many segments, with a
#: spare spawn after each; traced runs alternate plain and traced segments.
SEGMENTS = 6
TRACED_SEGMENTS = 6
#: untimed traffic before the timed phase.
WARM_UP_SECONDS = 1.0
#: seconds of gateway traffic in the traced ``cached`` run.
GATEWAY_SECONDS = 3.0
CACHED_SERVER_FLAGS = ("--cache-capacity", "4096", "--cache-ttl", "86400")

#: ``cached`` is not one of the benchmark's workloads: its timings would not
#: hold still on a 2-vCPU host (README, "Dropped: cached").  The traced run
#: of ``light`` (same methods) therefore appends a traced ``cached`` run and
#: takes from it the layers only cache hits reach.
HIT_LAYER_RUNS = {"light": "cached"}
HIT_LAYERS = (
    "cache.lookup_ms", "cache.hits", "cache.misses", "cache.hit_ratio",
    "gateway.overhead_ms", "gateway.proxy_failures",
)

#: every end-to-end metric and its unit, in report order.
END_TO_END_UNITS = {
    "setup_s": "s", "qps": "1/s", "p50_ms": "ms", "tail_ms": "ms",
    "rss_mb": "MiB", "server_cpu_ms": "ms", "comb_avg": "score",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Before numpy loads: the client runs one BLAS thread like its servers.
    os.environ.update(SINGLE_THREAD_ENV)
    # One CPU for the client and every server it starts (children inherit
    # the mask).  A closed loop spread over two vCPUs pays a cross-CPU
    # wake-up per hop whose cost swings with the host's load: unpinned,
    # ``cached`` ran at 270-700 qps across runs; pinned, at 584-628.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        prepared = ensure_prepared()
    except PrepareError as exc:
        print(f"perfbench: cannot prepare the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # program imports need SRC on the path

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    # A caller's timeout arrives as SIGTERM: unwind so servers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    report = Run(workloads.WORKLOADS[args.workload], prepared, args).execute()
    if args.trace and args.workload in HIT_LAYER_RUNS:
        hit_workload = workloads.WORKLOADS[HIT_LAYER_RUNS[args.workload]]
        _merge_hit_layers(report, Run(hit_workload, prepared, args).execute())
    results = CACHE_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


class Run:
    def __init__(self, workload, prepared: Path, args):
        self.workload = workload
        self.prepared = prepared
        self.args = args
        self.reference = json.loads((prepared / "reference.json").read_text())
        self.logs = CACHE_ROOT / "logs"
        self.servers: list = []

    # -- orchestration -----------------------------------------------------------
    def execute(self) -> dict:
        from workloads import HostProbe

        self.probe = HostProbe()
        try:
            return self._execute()
        finally:
            for server in self.servers:
                server.stop()
            self.probe.close()

    def _execute(self) -> dict:
        from measure import class_geomean
        from serving import SERVE_READY, start_serve
        from workloads import REFERENCE_PROBE_MS, ClosedLoop, connect

        traced = bool(self.args.trace)
        extra = CACHED_SERVER_FLAGS if self.workload.kind == "cached" else ()
        if traced:
            extra += ("--access-log",)
        def spawn():
            readings = [self.probe.read() for _ in range(SPAWN_PROBES)]
            started = start_serve(
                self.prepared, self.workload.methods, extra,
                self.logs / f"{self.workload.name}-trace{int(traced)}-{len(spawns)}.err",
            )
            self.servers.append(started)
            readings += [self.probe.read() for _ in range(SPAWN_PROBES)]
            factor = REFERENCE_PROBE_MS / statistics.median(readings)
            spawns.append({
                "banners": dict(started.banners),
                "rss_mb": started.ready_rss_mb,
                "scaled_setup_s": started.banners[SERVE_READY] * factor,
            })
            return started

        spawns: list[dict] = []
        server = spawn()
        client = connect(server.url)
        loop = ClosedLoop(self.workload, client, self.reference, self.args.seed,
                          server.cpu_seconds, self.probe)
        loop.warm_up(WARM_UP_SECONDS)
        stats_before = client.stats()
        metrics_before = _get_text(server.url + "/v1/metrics") if traced else ""

        segments = TRACED_SEGMENTS if traced else SEGMENTS
        segment_seconds = self.args.seconds / segments
        elapsed = {False: 0.0, True: 0.0}
        expansions = {False: 0, True: 0}
        client_cpu = 0.0
        segment_p50 = []
        for index in range(segments):
            traced_segment = traced and index % 2 == 1
            done, cpu_started = loop.expansions, time.process_time()
            marks = {m: len(v) for m, v in loop.samples.items()}
            elapsed[traced_segment] += loop.run_for(segment_seconds, traced=traced_segment)
            expansions[traced_segment] += loop.expansions - done
            if not traced_segment:
                client_cpu += time.process_time() - cpu_started
                segment_p50.append(class_geomean(
                    {m: v[marks[m]:] for m, v in loop.samples.items()}, 50
                ))
            if len(spawns) < SETUP_SPAWNS:
                spawn().stop()
        loop.cover()
        stats_after = client.stats()
        fits = {
            "registry.fits": stats_after["registry"]["fits"],
            "substrate.fits": stats_after["registry"]["substrates"]["fits"],
        }
        checks = {
            "no_failed_operations": loop.failed == 0,
            "every_reply_valid": loop.invalid_replies == 0,
            "rankings_equal_reference": loop.ranking_mismatches == 0,
            "no_fits_while_serving": not any(fits.values()),
            "query_set_covered": loop.covered(),
        }
        info = {
            "fits": fits,
            "rss_after_traffic_mb": server.peak_rss_mb(),
            "samples_per_class": {m: len(v) for m, v in loop.samples.items()},
            "segment_p50_ms": segment_p50,
        }
        if traced:
            metrics = self._per_layer(
                loop, server, spawns, stats_before, stats_after, metrics_before,
                expansions, client_cpu, checks, info,
            )
        else:
            metrics = self._end_to_end(loop, spawns, elapsed[False], expansions[False], info)
        client.close()
        return {
            "correct": all(checks.values()),
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {
                name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()
            },
            "checks": checks,
            "failures": dict(loop.failure_reasons),
            "succeeded": loop.attempted - loop.failed,
            "info": info,
            "host_reference": self._host_summary(loop),
            "provenance": self._provenance(),
        }

    # -- end-to-end --------------------------------------------------------------
    def _end_to_end(self, loop, spawns, elapsed, expansions, info) -> dict:
        """Every time is scaled to the reference host speed by the host-probe
        readings around it; ``info.unscaled`` keeps the times as measured."""
        from measure import balanced_mean, class_geomean, samples_beyond, supported_percentile
        from serving import SERVE_READY

        pct = self.workload.tail_pct
        counts = [len(values) for values in loop.samples.values()]
        info["tail_percentile"] = pct
        info["tail_min_samples_beyond"] = min(samples_beyond(n, pct) for n in counts)
        info["tail_supported_percentile"] = supported_percentile(counts)
        info["setup_spawns"] = spawns
        info["timed_seconds"] = elapsed
        info["timed_expansions"] = expansions
        # A round sends one call per class.  Each class's call costs its
        # query-balanced mean, so the part-finished last pass over the query
        # set does not tilt the round toward the queries it reached.
        items = loop.items_per_call * len(loop.samples)

        def round_ms(samples):
            return sum(balanced_mean(values) for values in samples.values())

        def round_cpu_ms(samples):
            return sum(
                balanced_mean([(cpu_ms, key) for _, key, _, cpu_ms in values])
                for values in samples.values()
            )

        scaled = loop.scaled(loop.samples)
        info["unscaled"] = {
            "setup_s": statistics.median(spawn["banners"][SERVE_READY] for spawn in spawns),
            "qps": items * 1000.0 / round_ms(loop.samples),
            "p50_ms": class_geomean(loop.samples, 50),
            "tail_ms": class_geomean(loop.samples, pct),
            "server_cpu_ms": round_cpu_ms(loop.samples) / items,
        }
        info["elapsed_qps"] = expansions / elapsed
        return {
            "setup_s": statistics.median(spawn["scaled_setup_s"] for spawn in spawns),
            "qps": items * 1000.0 / round_ms(scaled),
            "p50_ms": class_geomean(scaled, 50),
            "tail_ms": class_geomean(scaled, pct),
            "rss_mb": statistics.median(spawn["rss_mb"] for spawn in spawns),
            "server_cpu_ms": round_cpu_ms(scaled) / items,
            "comb_avg": loop.comb_avg(),
        }

    # -- per-layer ---------------------------------------------------------------
    def _per_layer(self, loop, server, spawns, stats_before, stats_after,
                   metrics_before, expansions, client_cpu, checks, info) -> dict:
        import inproc
        import layers
        from serving import SERVE_LOADED, SERVE_READY, SERVE_WARMING

        metrics: dict[str, float] = {}
        not_exercised: dict[str, str] = {}
        plain_requests = sum(len(values) for values in loop.samples.values())
        metrics["client.cpu_ms_per_req"] = client_cpu * 1000.0 / plain_requests
        metrics_after = _get_text(server.url + "/v1/metrics")
        server.stop()  # flushes the access log
        access = layers.access_rows(server.stderr_text())
        metrics.update(layers.request_layers(loop, access, not_exercised))
        metrics.update(layers.stats_layers(stats_before, stats_after, not_exercised))
        metrics.update(layers.ann_layers(metrics_before, metrics_after))
        banners = [spawn["banners"] for spawn in spawns]
        metrics["setup.load_s"] = statistics.median(b[SERVE_LOADED] for b in banners)
        metrics["setup.warm_s"] = statistics.median(
            b[SERVE_READY] - b[SERVE_WARMING] for b in banners
        )
        registry = stats_after["registry"]
        for method in layers.ALL_METHODS:
            metrics[f"registry.restore_s.{method}"] = registry["restore_seconds"].get(method, 0.0)
            if method not in self.workload.methods:
                not_exercised[f"registry.restore_s.{method}"] = "method not served"
        substrate_restores = registry["substrates"]["restore_seconds"]
        for kind in layers.SUBSTRATE_KINDS:
            metrics[f"substrate.restore_s.{kind}"] = substrate_restores.get(kind, 0.0)
            if kind not in substrate_restores:
                not_exercised[f"substrate.restore_s.{kind}"] = "no served method uses it"
        metrics["registry.fits"] = registry["fits"]
        metrics["substrate.fits"] = registry["substrates"]["fits"]
        metrics["obs.trace_overhead_pct"] = layers.trace_overhead_pct(loop)

        gateway = {"gateway.overhead_ms": 0.0, "gateway.proxy_failures": 0}
        if self.workload.kind == "cached":
            gateway = self._gateway_phase(layers, loop, checks, info)
        else:
            for name in gateway:
                not_exercised[name] = "traffic does not cross the gateway"
        metrics.update(gateway)

        if "genexpan" in self.workload.methods:
            inproc_metrics, mismatches, refits, skipped = inproc.run_pass(
                self.prepared, loop.expected, loop.query_ids, loop.top_k
            )
            metrics.update(inproc_metrics)
            not_exercised.update(skipped)
            checks["in_process_rankings_equal_reference"] = not mismatches
            checks["no_fits_in_process"] = refits == 0
            info["in_process_mismatches"] = mismatches
        else:
            for name in inproc.METRIC_NAMES:
                metrics[name] = 0.0
                not_exercised[name] = "genexpan and case are served only by heavy"
        info["not_exercised"] = dict(sorted(not_exercised.items()))
        info["gate"] = "not exercised: no workload configures a keyfile, quota or admission"
        info["traced_expansions"] = expansions[True]
        info["plain_expansions"] = expansions[False]
        return dict(sorted(metrics.items()))

    def _gateway_phase(self, layers, main_loop, checks, info) -> dict:
        """Cached traffic through a gateway in front of a fresh worker; its
        operations count toward the run's attempted and failed totals."""
        from serving import ServerProcess, start_serve
        from workloads import ClosedLoop, connect

        worker = start_serve(
            self.prepared, self.workload.methods, CACHED_SERVER_FLAGS + ("--access-log",),
            self.logs / f"{self.workload.name}-gateway-worker.err",
        )
        self.servers.append(worker)
        gateway = ServerProcess(
            [sys.executable, str(Path(__file__).resolve().parent / "gateway.py"),
             worker.url, self.reference["fingerprint"]],
            "Gateway serving expansion API v1 on ",
            self.logs / f"{self.workload.name}-gateway.err",
        ).start()
        self.servers.append(gateway)
        client = connect(gateway.url)
        loop = ClosedLoop(self.workload, client, self.reference, self.args.seed,
                          gateway.cpu_seconds, self.probe)
        loop.warm_up(WARM_UP_SECONDS)
        loop.run_for(GATEWAY_SECONDS)
        stats = client.stats()
        client.close()
        gateway.stop()
        worker.stop()
        gateway_stats = stats["gateway"]
        failures = sum(
            gateway_stats[key] for key in ("backend_errors", "no_backend_available", "failovers")
        )
        main_loop.attempted += loop.attempted
        main_loop.failed += loop.failed
        main_loop.failure_reasons.update(loop.failure_reasons)
        checks["gateway_replies_valid"] = loop.failed == 0
        overhead, join = layers.gateway_overhead(gateway.stderr_text(), worker.stderr_text())
        info["gateway_join"] = join
        info["gateway_requests"] = sum(len(v) for v in loop.samples.values())
        return {"gateway.overhead_ms": overhead, "gateway.proxy_failures": failures}

    # -- host, provenance --------------------------------------------------------
    def _host_summary(self, loop) -> dict:
        from workloads import REFERENCE_PROBE_MS

        readings = [ms for _, ms in loop.probes]
        return {
            "probe_ms": {
                "samples": len(readings),
                "median": statistics.median(readings),
                "min": min(readings),
                "max": max(readings),
            },
            "reference_probe_ms": REFERENCE_PROBE_MS,
        }

    def _provenance(self) -> dict:
        import numpy as np

        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = {"name": blas.get("name"), "version": blas.get("version")}
        except (KeyError, TypeError, ValueError):
            blas = {"name": "unknown", "version": None}
        return {
            "git_sha": sha or "unavailable: not a git checkout",
            "source_hash": self.prepared.name,
            "nproc": os.cpu_count(),
            "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
            "blas": blas,
            "blas_threads": {"servers": 1, "client": 1, "env": dict(
                (key, os.environ.get(key)) for key in sorted(SINGLE_THREAD_ENV)
            )},
            "python": platform.python_version(),
            "numpy": np.__version__,
            "dataset": {"profile": PROFILE, "seed": DATASET_SEED,
                        "fingerprint": self.reference["fingerprint"]},
            "query_set": {"size": self.workload.queries, "seed": QUERY_SET_SEED},
            "workload": self.workload.name,
            "workload_seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "served_by": "repro serve (one process, one BLAS thread)",
            "client": "ExpansionClient over HTTP, one connection, closed loop",
        }


def _merge_hit_layers(report: dict, hits: dict) -> None:
    """Take the cache and gateway layers of ``report`` from the traced run
    ``hits``, and count that run's operations and checks as the report's."""
    for name in HIT_LAYERS:
        report["metrics"][name] = hits["metrics"][name]
        report["info"]["not_exercised"].pop(name, None)
    for name in ("attempted", "failed", "succeeded"):
        report[name] += hits[name]
    for reason, count in hits["failures"].items():
        report["failures"][reason] = report["failures"].get(reason, 0) + count
    report["checks"].update(
        {f"{hits['provenance']['workload']}.{name}": ok for name, ok in hits["checks"].items()}
    )
    report["correct"] = all(report["checks"].values())
    report["info"]["hit_layers"] = {
        "workload": hits["provenance"]["workload"],
        "names": list(HIT_LAYERS),
        "info": hits["info"],
    }


def _unit(name: str) -> str:
    import layers

    return END_TO_END_UNITS.get(name) or layers.unit(name)


def _get_text(url: str) -> str:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read().decode("utf-8")


if __name__ == "__main__":
    sys.exit(main())
