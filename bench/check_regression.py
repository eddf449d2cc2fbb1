#!/usr/bin/env python3
"""CI bench-regression gate.

Compares a smoke-run bench JSON against the committed baseline snapshot and
fails (exit 1) on structural regressions that survive machine-speed noise:

* any benchmark entry with ``ok: false`` (covers result-set divergence
  across thread counts — bench_service folds its identical-results check
  into ``ok``);
* ``bench_service``: within one smoke run, entries of the same batch at
  different thread counts must agree on ``result_hash``, ``tuples`` and
  ``fetches`` (schedule-independence of results and aggregate t-cost);
* ``bench_service``: a batch family whose committed baseline shows zero
  batch fetches (the epoch-shared-artifact effect) must still show zero in
  the smoke run — fetch totals "bouncing back from zero" was the
  regression mode that motivated the artifacts work;
* ``bench_service``: unexpected per-query status codes — throughput
  batches must be all-OK, and the cancellation benchmark must report every
  query as ``deadline_exceeded`` (in-flight enforcement actually fired);
* ``bench_service``: the observability before/after column — the same
  batch with metrics recording off vs on, interleaved within one run so
  machine speed cancels — must stay within ``OBS_OVERHEAD_BOUND``; the
  design target is <=1% (a handful of relaxed atomics per completed
  query), the gate bound is looser only to absorb CI-runner noise;
* ``bench_service``: the answer-cache A/B — the skewed-repeat stream must
  hash identically with the cache on and off (the cache may never change
  an answer), the cache-on side must be at least as fast as cache-off,
  and the publish-heavy invalidation rep must stay selective (publishes
  touching only one base relation retire only the entries it supports);
* ``bench_live``: the publish-scaling sanity flag, when present in both
  files, must not regress from sublinear to superlinear;
* ``bench_live``: the durable-publish block must report ``ok`` (the
  recovered tip renders identical to the pre-shutdown tip) and the
  no-fsync WAL overhead ratio — durable publish over in-memory publish,
  measured within the same run so machine speed cancels — must stay
  within 25% (record framing, CRC and appends staying cheap relative to
  Publish() itself; raw fdatasync latency is hardware and is reported
  but not gated).

Wall-clock numbers are never compared: smoke runs use smaller inputs and
CI machines vary. The gate asserts invariants, not speed.

Usage:  check_regression.py <baseline.json> <smoke.json>
"""

import json
import os
import re
import sys
from collections import defaultdict


def current_cpu_model():
    """Best-effort CPU model string, matching bench_util.h's CpuModel()."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return ""


def warn_host_mismatch(baseline):
    """Non-fatal: flag a baseline recorded on different hardware.

    The gate itself only checks machine-independent invariants, but the
    numbers humans read next to a failure (wall times, ratios near their
    bounds) are only comparable on like hardware — so say so out loud
    instead of leaving the mismatch to be discovered mid-investigation.
    """
    host = baseline.get("host")
    if not isinstance(host, dict):
        return
    mismatches = []
    nproc = os.cpu_count()
    if host.get("nproc") not in (None, 0) and nproc and host["nproc"] != nproc:
        mismatches.append(f"nproc {host['nproc']} vs {nproc}")
    cpu = current_cpu_model()
    if host.get("cpu") and cpu and host["cpu"] != cpu:
        mismatches.append(f"cpu '{host['cpu']}' vs '{cpu}'")
    if mismatches:
        print(
            "WARNING: baseline host differs from this machine "
            f"({'; '.join(mismatches)}). Invariant checks below are still "
            "valid; absolute timings in the baseline are not comparable.")


def fail(errors):
    for e in errors:
        print(f"REGRESSION: {e}")
    print(f"{len(errors)} bench regression(s) detected")
    sys.exit(1)


def family(name):
    """Batch family: the benchmark name with thread-count and size params
    stripped, so smoke (small n) and baseline (full n) entries match."""
    name = re.sub(r"/threads=\d+$", "", name)
    name = re.sub(r"/n=\d+", "", name)
    name = re.sub(r"/h=\d+", "", name)
    return name


def check_ok_flags(tag, entries, errors):
    for b in entries:
        if not b.get("ok", False):
            errors.append(f"{tag}: benchmark '{b.get('name')}' reports ok=false")


def check_service(baseline, smoke, errors):
    sm = smoke.get("benchmarks", [])
    base = baseline.get("benchmarks", [])
    check_ok_flags("service", sm, errors)

    # Cross-thread-count agreement within the smoke run.
    groups = defaultdict(list)
    for b in sm:
        groups[family(b["name"])].append(b)
    for fam, entries in groups.items():
        for key in ("result_hash", "tuples", "fetches"):
            if key not in entries[0]:
                continue  # older snapshot without the field
            values = {e.get(key) for e in entries}
            if len(values) > 1:
                errors.append(
                    f"service: batch '{fam}' disagrees on {key} across "
                    f"thread counts: {sorted(map(str, values))}")

    # Fetch totals must not bounce back from zero where the baseline
    # established zero (epoch-shared artifacts serving every probe).
    base_zero = {
        family(b["name"])
        for b in base
        if b.get("ok") and b.get("fetches", 1) == 0
    }
    for fam, entries in groups.items():
        if fam not in base_zero:
            continue
        bad = [(e["name"], e.get("fetches", 0))
               for e in entries if e.get("fetches", 0) != 0]
        if bad:
            errors.append(
                f"service: field 'fetches' of batch '{fam}' regressed: "
                f"baseline=0, current={bad}")

    # Observability overhead: metrics on vs off, measured within one run.
    overhead = smoke.get("obs_overhead")
    base_overhead = baseline.get("obs_overhead")
    if overhead is not None:
        if not overhead.get("ok", False):
            errors.append(
                f"service: obs_overhead benchmark reports ok=false "
                f"({overhead.get('name')})")
        else:
            ratio = overhead.get("ratio", 0)
            if ratio > OBS_OVERHEAD_BOUND:
                errors.append(
                    "service: field 'obs_overhead.ratio' regressed: "
                    f"baseline={base_overhead.get('ratio') if base_overhead else 'n/a'}, "
                    f"current={ratio:.4f} (metrics on "
                    f"{overhead.get('wall_on_ms')} ms vs off "
                    f"{overhead.get('wall_off_ms')} ms), bound is "
                    f"x{OBS_OVERHEAD_BOUND} — metrics recording has crept "
                    "into the query hot path")
    elif base_overhead is not None:
        errors.append(
            "service: baseline has an obs_overhead block but the smoke run "
            "produced none")

    # Answer cache: the skewed-repeat stream must answer identically with
    # the cache on, and a cache that slows the repeat-heavy shape down has
    # lost its reason to exist (wall-noise-proof: both sides run
    # interleaved within the same process on the same frozen database).
    skewed = smoke.get("skewed")
    if skewed is not None:
        if not skewed.get("ok", False):
            errors.append(
                f"service: skewed cache benchmark reports ok=false "
                f"({skewed.get('name')})")
        else:
            if not skewed.get("hashes_match", False):
                errors.append(
                    "service: skewed cache benchmark diverged: cache-on "
                    f"hash {skewed.get('result_hash_on')} != cache-off "
                    f"hash {skewed.get('result_hash_off')} — the cache "
                    "changed an answer")
            if skewed.get("qps_on", 0) < skewed.get("qps_off", 0):
                errors.append(
                    "service: field 'skewed.qps_on' regressed below "
                    f"qps_off: on={skewed.get('qps_on'):.1f}, "
                    f"off={skewed.get('qps_off'):.1f} — the answer cache "
                    "costs more than it saves on its home workload")
    elif baseline.get("skewed") is not None:
        errors.append(
            "service: baseline has a skewed cache block but the smoke run "
            "produced none")

    invalidation = smoke.get("cache_invalidation")
    if invalidation is not None:
        if not invalidation.get("ok", False):
            errors.append(
                f"service: cache_invalidation benchmark reports ok=false "
                f"({invalidation.get('name')})")
        elif not invalidation.get("selective", False):
            errors.append(
                "service: cache invalidation lost selectivity: "
                f"{invalidation.get('invalidated')} entries invalidated "
                f"over {invalidation.get('publishes')} publishes, expected "
                f"{invalidation.get('expected_per_publish')} per publish "
                "with every unaffected entry still hitting")
    elif baseline.get("cache_invalidation") is not None:
        errors.append(
            "service: baseline has a cache_invalidation block but the "
            "smoke run produced none")

    # Streamed delivery: the first chunk must land strictly before the
    # full response on the ladder (the structural claim of the data
    # plane — chunks leave the engine mid-fixpoint). Wall-noise-proof:
    # both numbers come from the same queries in the same process.
    streaming = smoke.get("streaming")
    if streaming is not None:
        if not streaming.get("ok", False):
            errors.append(
                f"service: streaming benchmark reports ok=false "
                f"({streaming.get('name')})")
        else:
            first = streaming.get("first_chunk_p50_ms", 0)
            total = streaming.get("total_p50_ms", 0)
            if first >= total:
                errors.append(
                    "service: field 'streaming.first_chunk_p50_ms' "
                    f"regressed: first chunk p50 {first} ms >= full "
                    f"response p50 {total} ms on '{streaming.get('name')}' "
                    "— streamed chunks no longer leave mid-evaluation")
            queries = streaming.get("queries", 0)
            if streaming.get("chunks", 0) < 2 * queries:
                errors.append(
                    "service: streaming benchmark averaged fewer than 2 "
                    f"chunks per query ({streaming.get('chunks')} over "
                    f"{queries}) — incremental delivery collapsed")
    elif baseline.get("streaming") is not None:
        errors.append(
            "service: baseline has a streaming block but the smoke run "
            "produced none")

    # Status codes: throughput batches are all-OK...
    for b in sm:
        status = b.get("status")
        if status is None:
            continue
        unexpected = {k: v for k, v in status.items() if k != "ok" and v != 0}
        if unexpected:
            errors.append(
                f"service: batch '{b['name']}' has non-OK query statuses "
                f"{unexpected}")
    # ...and the cancellation benchmark is all-deadline_exceeded.
    cancel = smoke.get("cancellation")
    if cancel is not None:
        if not cancel.get("ok", False):
            errors.append("service: cancellation benchmark reports ok=false")
        status = cancel.get("status", {})
        queries = cancel.get("queries", 0)
        if status.get("deadline_exceeded", 0) != queries:
            errors.append(
                "service: cancellation benchmark expected "
                f"{queries} deadline_exceeded responses, got {status}")


def check_storage(baseline, smoke, errors):
    del baseline  # smoke sizes differ; only invariants are checked
    check_ok_flags("storage", smoke.get("benchmarks", []), errors)


# Durable publish (WAL attached, fsync off) may cost at most this much
# over in-memory publish, as a within-run p50 ratio.
DURABLE_OVERHEAD_BOUND = 1.25

# Metrics-enabled service throughput may cost at most this much over the
# same batch with recording disabled (within-run median of interleaved
# off/on pair ratios). The design target is 1.01; the slack absorbs
# scheduler noise on small CI runners, not real overhead.
OBS_OVERHEAD_BOUND = 1.10


def check_live(baseline, smoke, errors):
    check_ok_flags("live", smoke.get("benchmarks", []), errors)
    durable = smoke.get("durable_publish")
    if durable is not None:
        if not durable.get("ok", False):
            errors.append(
                "live: durable-publish benchmark reports ok=false "
                f"({durable.get('name')}): recovery or a publish failed")
        ratio = durable.get("wal_overhead")
        if ratio is not None and ratio > DURABLE_OVERHEAD_BOUND:
            base_durable = baseline.get("durable_publish") or {}
            errors.append(
                "live: field 'durable_publish.wal_overhead' regressed: "
                f"baseline={base_durable.get('wal_overhead', 'n/a')}, "
                f"current=x{ratio:.2f}, bound is "
                f"x{DURABLE_OVERHEAD_BOUND} — WAL appends have crept into "
                "the publish critical path")
    elif baseline.get("durable_publish") is not None:
        errors.append(
            "live: baseline has a durable_publish block but the smoke "
            "run produced none")
    base_scaling = baseline.get("publish_scaling", {})
    smoke_scaling = smoke.get("publish_scaling", {})
    if base_scaling.get("sublinear") and "sublinear" in smoke_scaling:
        if not smoke_scaling["sublinear"]:
            errors.append(
                "live: field 'publish_scaling.sublinear' regressed: "
                f"baseline=true (latency_ratio="
                f"{base_scaling.get('latency_ratio')}), current=false "
                f"(latency_ratio={smoke_scaling.get('latency_ratio')} over "
                f"size_ratio={smoke_scaling.get('size_ratio')})")


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)
    with open(argv[2]) as f:
        smoke = json.load(f)

    kind_b = baseline.get("bench")
    kind_s = smoke.get("bench")
    if kind_b != kind_s:
        fail([f"baseline is a '{kind_b}' snapshot but smoke is '{kind_s}'"])
    warn_host_mismatch(baseline)

    errors = []
    if kind_s == "service":
        check_service(baseline, smoke, errors)
    elif kind_s == "storage":
        check_storage(baseline, smoke, errors)
    elif kind_s == "live":
        check_live(baseline, smoke, errors)
    else:
        errors.append(f"unknown bench kind '{kind_s}'")
    if errors:
        fail(errors)
    n = len(smoke.get("benchmarks", []))
    print(f"bench-regression gate OK: {kind_s} ({n} benchmarks checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
