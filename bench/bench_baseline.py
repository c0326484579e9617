#!/usr/bin/env python3
"""Records the repo's performance trajectory into a BENCH_*.json file.

Runs the headline benchmark binaries (DES mode throughput, dictionary-attack
guess rate, KDC exchange rate) with google-benchmark's JSON output and
distills the numbers every PR cares about:

    blocks_per_sec: ECB / CBC / PCBC at 8 KiB buffers
    guesses_per_sec: string-to-key alone, and string-to-key + trial unseal
    kdc_requests_per_sec: bare AS, preauth AS, TGS — handler-level (B11),
        i.e. KdcCore5 serving cost on a pre-encoded request, without the
        client-side encode/decode the PR-1 numbers included
    kdc_parallel: requests/sec per worker-pool size (wall-clock), plus the
        machine's core count for interpreting the scaling curve
    chaos: goodput percentage (exchanges that returned the honest payload)
        per injected fault rate, V4 and V5, under the B12 chaos study —
        the robustness trajectory of the retry/failover stack
    obs: kobs tracing cost on the handler-level AS exchange (B13) — the
        disabled path (the zero-overhead contract, acceptance: within 3%
        of kdc_requests_per_sec.as_bare), the enabled path, the derived
        overhead percentage, and the per-run trace counters of one traced
        chaos study
    persist: durable-store throughput (B14) — WAL appends/sec on the
        journaled registration path, recovery replay records/sec, and the
        kprop transfer cost of a one-user change: delta bytes vs wholesale
        bytes (acceptance: the ratio is strictly below 1)
    pk: the PR-7 public-key preauth pipeline (B3) — modexp/sec for the
        binary ladder, the cached sliding-window context, and the
        fixed-base comb at 256/512/768/1024-bit moduli (768/1024 are the
        Oakley groups), the windowed- and fixed-base-over-binary speedups
        at 1024 bits (acceptance: windowed >= 3x), and bulk verified DH
        logins/sec through the threaded V4 KDC core per worker count
    admin: the PR-8 admin plane (B15) — protected password changes/sec and
        sealed kvno queries/sec through the kadmin service, plus old-ticket
        goodput and admin apply rate per fault rate while keys rotate
        under live traffic (acceptance: goodput 100 at rate 0, and every
        rotation invariant holds at every rate — the bench skips with an
        error otherwise)
    cluster: the PR-10 scale-out plane (B16) — a million-principal realm
        sharded across consistent-hash KDC nodes: virtual aggregate AS/TGS
        throughput and latency percentiles at 1/2/4/8 nodes, the speedup
        curve over a single node (acceptance: >= 1.5x at 4 nodes, guarded
        by bench_guard_cluster), zipf-vs-uniform skew sensitivity, the
        cold-client referral rate, and goodput through the blackout +
        crash chaos run. Recorded at KERB_CLUSTER_POP principals
        (default one million here; export it to record smaller realms).

Usage:
    python3 bench/bench_baseline.py --build-dir build --out BENCH_PR10.json

or via the CMake target:  cmake --build build --target bench_baseline
Stdlib only; no third-party packages.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def run_bench(binary, bench_filter, min_time=None):
    """Runs one bench binary, returns google-benchmark's parsed JSON list."""
    out_path = tempfile.mktemp(suffix=".json")
    cmd = [
        binary,
        f"--benchmark_filter={bench_filter}",
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
    ]
    if min_time is not None:
        cmd.append(f"--benchmark_min_time={min_time}")
    try:
        try:
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
        except FileNotFoundError:
            sys.exit(f"error: bench binary not found: {binary} "
                     "(build it first, or pass --build-dir)")
        with open(out_path) as f:
            return json.load(f)["benchmarks"]
    finally:
        if os.path.exists(out_path):
            os.unlink(out_path)


def run_bench_best_of(binary, bench_filter, min_time=None, runs=3):
    """run_bench N times, keeping each benchmark's best throughput fields.

    The perf-gating sections (cipher core, sweep, KDC scaling) are recorded
    as best-of-N because shared 1-core boxes drift ±10% over a multi-minute
    recording run; the best sustained rate is the machine-speed-independent
    number, and taking it per benchmark stops a mid-run slowdown from
    masquerading as a scaling regression.
    """
    merged = {}
    for _ in range(runs):
        for b in run_bench(binary, bench_filter, min_time):
            prev = merged.get(b["name"])
            if prev is None:
                merged[b["name"]] = dict(b)
            else:
                for field in ("items_per_second", "bytes_per_second"):
                    if field in b and field in prev:
                        prev[field] = max(prev[field], b[field])
    return list(merged.values())


def run_report_metrics(binary, extra_env=None):
    """Runs a bench's experiment report only (no timing loops) and returns
    the scalar metrics it recorded via KERB_BENCH_JSON."""
    out_path = tempfile.mktemp(suffix=".json")
    env = dict(os.environ)
    env["KERB_BENCH_JSON"] = out_path
    env.update(extra_env or {})
    cmd = [binary, "--benchmark_filter=ZZZNOMATCH"]
    try:
        try:
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, env=env)
        except FileNotFoundError:
            sys.exit(f"error: bench binary not found: {binary} "
                     "(build it first, or pass --build-dir)")
        with open(out_path) as f:
            return json.load(f)["metrics"]
    finally:
        if os.path.exists(out_path):
            os.unlink(out_path)


def build_meta(build_dir):
    """Provenance for the numbers: compiler, flags, git SHA, core count."""
    cache = {}
    cache_path = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache_path):
        with open(cache_path) as f:
            for line in f:
                line = line.strip()
                if "=" in line and not line.startswith(("//", "#")):
                    key, _, value = line.partition("=")
                    cache[key.partition(":")[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(
        part for part in (
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""),
        ) if part
    )
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        version = ""
    # Anchor git at the repo root (this script's parent directory) so the
    # recorded SHA is the repo's HEAD no matter where the script is invoked
    # from, and ignore untracked files: build leftovers are not "dirty".
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        sha = subprocess.run(["git", "-C", repo_root, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", repo_root, "status",
                                "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True,
                               check=True).stdout.strip() != ""
    except (OSError, subprocess.CalledProcessError):
        sha, dirty = "", False
    return {
        "compiler": version or compiler,
        "build_type": build_type,
        "cxx_flags": flags,
        "git_sha": sha + ("-dirty" if dirty else ""),
        "cores": os.cpu_count() or 1,
    }


def metric(benchmarks, name, field):
    for b in benchmarks:
        if b["name"] == name:
            return b[field]
    raise KeyError(f"benchmark {name!r} not found; got "
                   f"{[b['name'] for b in benchmarks]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="BENCH_PR10.json")
    parser.add_argument("--min-time", default=None,
                        help="override --benchmark_min_time (bare seconds, e.g. 0.05)")
    args = parser.parse_args()

    bench_dir = os.path.join(args.build_dir, "bench")

    b1 = run_bench_best_of(os.path.join(bench_dir, "bench_b1_desmodes"),
                           "BM_Des(Ecb|Cbc|Pcbc)/8192$", args.min_time)
    b4 = run_bench_best_of(os.path.join(bench_dir, "bench_b4_crack"),
                           "BM_StringToKey|BM_GuessConfirmation"
                           "|BM_ParallelCrackSweep", args.min_time, runs=5)
    b11 = run_bench_best_of(os.path.join(bench_dir, "bench_b11_kdcparallel"),
                            "BM_KdcAsBare|BM_KdcAsPreauth|BM_KdcTgs$"
                            "|BM_KdcParallel(As|Tgs)/",
                            args.min_time)
    b12 = run_bench(os.path.join(bench_dir, "bench_b12_chaos"),
                    "BM_ChaosGoodput(4|5)/", args.min_time or "0.01")
    b13 = run_bench(os.path.join(bench_dir, "bench_b13_obs"),
                    "BM_EmitDisabled|BM_KdcAsObs(Off|On)$|BM_TracedChaos4",
                    args.min_time)
    b14 = run_bench(os.path.join(bench_dir, "bench_b14_persist"),
                    "BM_WalAppend$|BM_WalRecover/|BM_PropDelta$",
                    args.min_time)
    b3 = run_bench_best_of(os.path.join(bench_dir, "bench_b3_dh"),
                           "BM_ModExp(Binary|Windowed|FixedBase)/"
                           "|BM_PkLogin4Bulk/", args.min_time)
    b15 = run_bench(os.path.join(bench_dir, "bench_b15_admin"),
                    "BM_AdminChangePassword$|BM_AdminGetKvno$"
                    "|BM_RotationStudy/", args.min_time)

    doc = {
        "meta": build_meta(args.build_dir),
        "blocks_per_sec": {
            "ecb": metric(b1, "BM_DesEcb/8192", "bytes_per_second") / 8,
            "cbc": metric(b1, "BM_DesCbc/8192", "bytes_per_second") / 8,
            "pcbc": metric(b1, "BM_DesPcbc/8192", "bytes_per_second") / 8,
        },
        "guesses_per_sec": {
            "string_to_key": metric(b4, "BM_StringToKey", "items_per_second"),
            "confirmed_guess": metric(b4, "BM_GuessConfirmation",
                                      "items_per_second"),
            "parallel_sweep": metric(b4, "BM_ParallelCrackSweep",
                                     "items_per_second"),
        },
        "kdc_requests_per_sec": {
            "as_bare": metric(b11, "BM_KdcAsBare", "items_per_second"),
            "as_preauth": metric(b11, "BM_KdcAsPreauth", "items_per_second"),
            "tgs": metric(b11, "BM_KdcTgs", "items_per_second"),
        },
        "kdc_parallel": {
            "cores": os.cpu_count() or 1,
            "as_workers": {
                str(n): metric(b11, f"BM_KdcParallelAs/{n}/real_time",
                               "items_per_second")
                for n in (1, 2, 4, 8)
            },
            "tgs_workers": {
                str(n): metric(b11, f"BM_KdcParallelTgs/{n}/real_time",
                               "items_per_second")
                for n in (1, 2, 4, 8)
            },
        },
        "chaos": {
            "goodput_pct_v4": {
                str(pct): metric(b12, f"BM_ChaosGoodput4/{pct}", "goodput_pct")
                for pct in (0, 5, 10, 20, 30)
            },
            "goodput_pct_v5": {
                str(pct): metric(b12, f"BM_ChaosGoodput5/{pct}", "goodput_pct")
                for pct in (0, 5, 10, 20, 30)
            },
        },
    }

    as_off = metric(b13, "BM_KdcAsObsOff", "items_per_second")
    as_on = metric(b13, "BM_KdcAsObsOn", "items_per_second")
    doc["obs"] = {
        "emit_disabled_per_sec": metric(b13, "BM_EmitDisabled", "items_per_second"),
        "kdc_as_per_sec": {"tracing_off": as_off, "tracing_on": as_on},
        "tracing_overhead_pct": (as_off - as_on) / as_off * 100.0,
        "traced_chaos_per_run": {
            name: metric(b13, "BM_TracedChaos4", name)
            for name in ("trace_events", "kdc_issues", "net_drops", "seal_bytes")
        },
    }

    delta_bytes = metric(b14, "BM_PropDelta", "delta_bytes")
    wholesale_bytes = metric(b14, "BM_PropDelta", "wholesale_bytes")
    doc["persist"] = {
        "wal_appends_per_sec": metric(b14, "BM_WalAppend", "items_per_second"),
        "recovery_records_per_sec": {
            str(n): metric(b14, f"BM_WalRecover/{n}", "items_per_second")
            for n in (64, 1024)
        },
        "prop_one_user_change": {
            "delta_bytes": delta_bytes,
            "wholesale_bytes": wholesale_bytes,
            "delta_over_wholesale": delta_bytes / wholesale_bytes,
        },
    }

    pk_sizes = (256, 512, 768, 1024)
    modexp = {
        engine: {
            str(bits): metric(b3, f"BM_ModExp{name}/{bits}", "items_per_second")
            for bits in pk_sizes
        }
        for engine, name in (("binary", "Binary"), ("windowed", "Windowed"),
                             ("fixed_base", "FixedBase"))
    }
    doc["pk"] = {
        "modexp_per_sec": modexp,
        "speedup_1024": {
            "windowed_over_binary":
                modexp["windowed"]["1024"] / modexp["binary"]["1024"],
            "fixed_base_over_binary":
                modexp["fixed_base"]["1024"] / modexp["binary"]["1024"],
        },
        "dh_logins_per_sec": {
            str(n): metric(b3, f"BM_PkLogin4Bulk/{n}/real_time",
                           "items_per_second")
            for n in (1, 2, 4)
        },
    }

    doc["admin"] = {
        "password_changes_per_sec": metric(b15, "BM_AdminChangePassword",
                                           "items_per_second"),
        "kvno_queries_per_sec": metric(b15, "BM_AdminGetKvno",
                                       "items_per_second"),
        "rotation_old_ticket_goodput_pct": {
            str(pct): metric(b15, f"BM_RotationStudy/{pct}",
                             "old_ticket_goodput_pct")
            for pct in (0, 10, 20, 30)
        },
        "rotation_admin_applied_pct": {
            str(pct): metric(b15, f"BM_RotationStudy/{pct}",
                             "admin_applied_pct")
            for pct in (0, 10, 20, 30)
        },
    }

    cluster_pop = os.environ.get("KERB_CLUSTER_POP", "1000000")
    b16 = run_report_metrics(os.path.join(bench_dir, "bench_b16_cluster"),
                             {"KERB_CLUSTER_POP": cluster_pop})
    node_counts = (1, 2, 4, 8)
    doc["cluster"] = {
        "population": int(cluster_pop),
        "aggregate_ops_per_sec": {
            str(n): b16[f"cluster_{n}node_agg_ops_per_sec"] for n in node_counts
        },
        "speedup_over_1node": {
            str(n): b16[f"cluster_{n}node_speedup"] for n in node_counts
        },
        "latency_p50_us": {
            str(n): b16[f"cluster_{n}node_p50_us"] for n in node_counts
        },
        "latency_p99_us": {
            str(n): b16[f"cluster_{n}node_p99_us"] for n in node_counts
        },
        "cold_referral_rate": {
            str(n): b16[f"cluster_{n}node_cold_referral_rate"] for n in node_counts
        },
        "skew_4node_agg_ops_per_sec": {
            "uniform": b16["cluster_4node_uniform_agg_ops_per_sec"],
            "zipf": b16["cluster_4node_zipf_agg_ops_per_sec"],
        },
        "chaos_goodput_pct": b16["cluster_chaos_goodput_pct"],
    }

    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    def show(prefix, values):
        for name, value in values.items():
            if isinstance(value, dict):
                show(f"{prefix}.{name}", value)
            elif isinstance(value, str):
                print(f"  {prefix}.{name}: {value}")
            else:
                print(f"  {prefix}.{name}: {value:,.0f}")
    for section, values in doc.items():
        show(section, values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
