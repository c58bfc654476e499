#!/usr/bin/env python3
"""Validates a Prometheus text-format exposition produced by hermes.

Structural checks follow the text exposition format spec: HELP/TYPE
headers precede their family's samples, one header per family, sample
lines parse, label values are properly quoted. Hermes-specific checks:
the families every instrumented layer registers must be present, and
histogram bucket series must be cumulative and end in an '+Inf' bucket
matching the family's _count.

Usage: validate_prometheus.py FILE.prom [--require FAMILY ...]
Exits non-zero with a message on the first violation. Stdlib only.
"""

import re
import sys

SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*)\})?'
    r' (?P<value>[0-9.eE+-]+|NaN|[+-]Inf)$'
)

DEFAULT_REQUIRED = [
    "hermes_queries_total",
    "hermes_query_sim_ms",
    "hermes_query_tf_sim_ms",
    "hermes_query_ta_sim_ms",
    "hermes_net_calls_total",
    "hermes_callpipe_singleflight_leader_total",
    "hermes_callpipe_singleflight_follower_total",
    "hermes_site_calls_total",
    "hermes_cache_hits_total",
    "hermes_cache_entry_age_sim_ms",
    "hermes_cache_evict_age_sim_ms",
    "hermes_cim_exact_hits_total",
    "hermes_dcsm_records_total",
    "hermes_dcsm_drift",
    "hermes_replan_triggers_total",
    "hermes_replan_splices_total",
    "hermes_flight_events_total",
    "hermes_flight_events_dropped_total",
    "hermes_diag_captures_total",
    "hermes_hedge_issued_total",
    "hermes_hedge_wins_total",
    "hermes_hedge_cancelled_total",
    "hermes_resilience_retries_total",
    "hermes_resilience_breaker_shed_total",
    "hermes_resilience_breaker_transitions_total",
    "hermes_resilience_deadline_aborts_total",
    "hermes_resilience_stale_serves_total",
]


def fail(msg):
    print(f"validate_prometheus: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def family_of(sample_name):
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def main(path, required):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    types = {}       # family -> declared type
    helps = set()
    samples = []     # (name, labels-str, value, line-no)
    headers_seen = []
    for no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                fail(f"line {no}: malformed HELP header")
            helps.add(parts[2])
        elif line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "histogram", "summary"):
                fail(f"line {no}: malformed TYPE header: {line!r}")
            if parts[2] in types:
                fail(f"line {no}: duplicate TYPE header for {parts[2]}")
            types[parts[2]] = parts[3]
            headers_seen.append(parts[2])
        elif line.startswith("#"):
            fail(f"line {no}: unexpected comment: {line!r}")
        else:
            m = SAMPLE_RE.match(line)
            if not m:
                fail(f"line {no}: unparsable sample: {line!r}")
            samples.append((m.group("name"), m.group("labels") or "",
                            float(m.group("value")), no))

    if not samples:
        fail("no samples")
    for name, _, _, no in samples:
        fam = family_of(name)
        if fam not in types:
            fail(f"line {no}: sample {name} has no TYPE header")
        if fam not in helps:
            fail(f"line {no}: sample {name} has no HELP header")

    for fam in required:
        if fam not in types:
            fail(f"required family missing: {fam}")
        if not any(family_of(name) == fam for name, _, _, _ in samples):
            fail(f"required family has no samples: {fam}")

    # Histogram checks: per series (family + non-le labels), buckets are
    # cumulative, the last bucket is +Inf, and it equals _count.
    for fam, typ in types.items():
        if typ != "histogram":
            continue
        series = {}
        counts = {}
        for name, labels, value, no in samples:
            if family_of(name) != fam:
                continue
            if name.endswith("_bucket"):
                le = re.search(r'le="([^"]*)"', labels)
                if not le:
                    fail(f"line {no}: bucket sample without le label")
                rest = re.sub(r'le="[^"]*",?', "", labels).rstrip(",")
                series.setdefault(rest, []).append((le.group(1), value))
            elif name.endswith("_count"):
                counts[labels] = value
        for key, buckets in series.items():
            values = [v for _, v in buckets]
            if values != sorted(values):
                fail(f"{fam}{{{key}}}: bucket counts are not cumulative")
            if buckets[-1][0] != "+Inf":
                fail(f"{fam}{{{key}}}: last bucket is not +Inf")
            if key in counts and buckets[-1][1] != counts[key]:
                fail(f"{fam}{{{key}}}: +Inf bucket {buckets[-1][1]} != "
                     f"_count {counts[key]}")

    print(f"validate_prometheus: OK: {len(samples)} samples across "
          f"{len(types)} families "
          f"({sum(1 for t in types.values() if t == 'histogram')} histograms)")


if __name__ == "__main__":
    args = sys.argv[1:]
    if not args:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    file_path = args[0]
    req = DEFAULT_REQUIRED
    if len(args) > 1:
        if args[1] != "--require":
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        req = args[2:]
    main(file_path, req)
