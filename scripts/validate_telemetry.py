#!/usr/bin/env python3
"""Validate Fly-Over telemetry artifacts (CI gate + local tooling).

Usage:
    scripts/validate_telemetry.py --trace run.trace.json
    scripts/validate_telemetry.py --manifest run.json
    scripts/validate_telemetry.py --diff-manifests serial.json parallel.json
    scripts/validate_telemetry.py --certificate cert.json \
        [--reference scripts/certify_reference.json] [--expect-early-stop]

--trace: checks the file is a Chrome-trace-event document Perfetto will
load: an object with a "traceEvents" array whose entries carry the
required ph/ts/pid/tid/name fields, instant events have cat + args, and
async begin/end pairs balance per (cat, id).

--manifest: checks a flyover-run-manifest-v1 / flyover-sweep-manifest-v1
document has its required fields and a well-formed embedded metrics
registry.

--certificate: checks a flyover-certificate-v1 document is well-formed
and internally consistent (counts, interval ordering, stop reason).
With --reference, additionally enforces the regression gate: the
certificate's certified lower bound on the reference's target metric
must not fall below the checked-in floor. With --expect-early-stop,
fails unless the sequential rule resolved before the replication cap.

--diff-manifests: strips the VOLATILE fields (wall_seconds, jobs,
trace_path, threads/tiles, noc.step_threads, noc.step_tiles_x/y — the
only fields allowed to differ between a serial and a parallel run/sweep
of the same configuration) recursively from both documents, then
compares byte-for-byte. Exit 1 on any other difference: this is the
serial-vs-parallel determinism gate, for sweep-level (jobs=) and
intra-run (threads= / tiles= domain workers) parallelism.

--snapshot: validates flyover-snapshot-v1 documents from the ops
plane's /snapshot endpoint or an ops_stream= JSONL flight recording
(auto-detected: one object, or one object per line). Checks the schema
tag, required scalar fields, and — for run-mode snapshots — that every
node array has exactly width*height entries. Also accepts
flyover-heatmap-v1 documents from /heatmap (grid shape check).

--prometheus: validates a Prometheus text-exposition (0.0.4) document
from /metrics: every sample line parses as `name value`, every sample
has a preceding # TYPE, and the core Fly-Over series (including
flyover_latency_hist_overflow_total and
flyover_hard_fault_incidents_total — the PR's incident surfacing) are
present.
"""
import argparse
import json
import re
import sys

VOLATILE_KEYS = {"wall_seconds", "jobs", "trace_path", "threads",
                 "noc.step_threads", "tiles", "noc.step_tiles_x",
                 "noc.step_tiles_y"}

RUN_SCHEMA = "flyover-run-manifest-v1"
SWEEP_SCHEMA = "flyover-sweep-manifest-v1"
CERT_SCHEMA = "flyover-certificate-v1"
SNAPSHOT_SCHEMA = "flyover-snapshot-v1"
HEATMAP_SCHEMA = "flyover-heatmap-v1"

# Series every /metrics exposition must carry (run or campaign mode).
PROMETHEUS_REQUIRED = {
    "flyover_snapshot_seq",
    "flyover_progress_ratio",
    "flyover_latency_hist_overflow_total",
    "flyover_incidents_total",
    "flyover_hard_fault_incidents_total",
    "flyover_watchdog_stall_incidents_total",
    "flyover_stalled",
}

STOP_REASONS = {"target_certified", "target_refuted", "half_width",
                "max_replications"}


def fail(msg):
    print("validate_telemetry: FAIL: %s" % msg)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("%s: %s" % (path, e))


def validate_trace(path):
    doc = load(path)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("%s: not a Chrome-trace object (no traceEvents)" % path)
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail("%s: traceEvents is not an array" % path)
    open_async = {}
    instants = 0
    spans = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail("%s: traceEvents[%d] is not an object" % (path, i))
        for field in ("ph", "ts", "pid", "tid", "name"):
            if field not in ev:
                fail("%s: traceEvents[%d] missing %r" % (path, i, field))
        ph = ev["ph"]
        if ph == "i":
            instants += 1
            if "cat" not in ev:
                fail("%s: instant event [%d] missing cat" % (path, i))
            if not isinstance(ev.get("args", {}), dict):
                fail("%s: instant event [%d] args not an object" % (path, i))
        elif ph in ("b", "e"):
            spans += 1
            key = (ev.get("cat"), ev.get("id"))
            open_async[key] = open_async.get(key, 0) + (1 if ph == "b" else -1)
        elif ph not in ("M",):
            fail("%s: traceEvents[%d] has unknown ph %r" % (path, i, ph))
    dangling = {k: v for k, v in open_async.items() if v != 0}
    if dangling:
        # Unbalanced spans are expected, not an error: episodes still open
        # when the run ended have no end event, and the ring may have
        # evicted a begin while its end survived.
        print("  note: %d async span track(s) unbalanced (episodes open at "
              "end of run or ring eviction)" % len(dangling))
    print("OK: %s: %d instant events, %d async span events"
          % (path, instants, spans))


def validate_registry(reg, where):
    if reg is None:
        return
    if not isinstance(reg, dict):
        fail("%s: metrics registry is not an object" % where)
    for section in ("counters", "gauges", "stats", "histograms", "series"):
        if section not in reg:
            fail("%s: metrics registry missing %r" % (where, section))
        if not isinstance(reg[section], dict):
            fail("%s: metrics registry %r is not an object"
                 % (where, section))
    for name, st in reg["stats"].items():
        for field in ("count", "mean", "min", "max", "stddev"):
            if field not in st:
                fail("%s: stat %r missing %r" % (where, name, field))
    for name, h in reg["histograms"].items():
        for field in ("lo", "hi", "count", "clamped_low", "clamped_high",
                      "bins"):
            if field not in h:
                fail("%s: histogram %r missing %r" % (where, name, field))


def validate_manifest(path):
    doc = load(path)
    schema = doc.get("schema")
    if schema == RUN_SCHEMA:
        required = ("name", "scheme", "git_describe", "seed", "config",
                    "wall_seconds", "trace_path", "metrics", "incidents")
    elif schema == SWEEP_SCHEMA:
        required = ("name", "git_describe", "config", "jobs", "wall_seconds",
                    "points", "merged_metrics", "incidents")
    else:
        fail("%s: unknown schema %r" % (path, schema))
    for field in required:
        if field not in doc:
            fail("%s: missing field %r" % (path, field))
    if not isinstance(doc["incidents"], list):
        fail("%s: incidents is not an array" % path)
    if schema == RUN_SCHEMA:
        validate_registry(doc["metrics"], path)
        n_points = None
    else:
        validate_registry(doc["merged_metrics"], "%s merged" % path)
        if not isinstance(doc["points"], list):
            fail("%s: points is not an array" % path)
        for i, p in enumerate(doc["points"]):
            for field in ("scheme", "pattern", "inj", "gated", "seed",
                          "metrics"):
                if field not in p:
                    fail("%s: points[%d] missing %r" % (path, i, field))
            validate_registry(p["metrics"], "%s points[%d]" % (path, i))
        n_points = len(doc["points"])
    extra = "" if n_points is None else ", %d points" % n_points
    print("OK: %s: %s%s, %d incident(s)"
          % (path, schema, extra, len(doc["incidents"])))


def validate_certificate(path, reference=None, expect_early_stop=False):
    doc = load(path)
    if doc.get("schema") != CERT_SCHEMA:
        fail("%s: schema is %r, want %r" % (path, doc.get("schema"),
                                            CERT_SCHEMA))
    required = ("name", "git_describe", "config", "config_fingerprint",
                "seed_base", "replications", "max_replications",
                "confidence", "target_metric", "target", "stop_reason",
                "jobs", "wall_seconds", "metrics")
    for field in required:
        if field not in doc:
            fail("%s: missing field %r" % (path, field))
    if not 0.0 < doc["confidence"] < 1.0:
        fail("%s: confidence %r not in (0, 1)" % (path, doc["confidence"]))
    if doc["stop_reason"] not in STOP_REASONS:
        fail("%s: unknown stop_reason %r" % (path, doc["stop_reason"]))
    if not 0 < doc["replications"] <= doc["max_replications"]:
        fail("%s: replications %r outside (0, max_replications=%r]"
             % (path, doc["replications"], doc["max_replications"]))
    if not isinstance(doc["metrics"], list) or not doc["metrics"]:
        fail("%s: metrics is not a non-empty array" % path)
    by_name = {}
    for i, m in enumerate(doc["metrics"]):
        for field in ("name", "successes", "trials", "point",
                      "wilson_lower", "wilson_upper",
                      "clopper_pearson_lower", "clopper_pearson_upper"):
            if field not in m:
                fail("%s: metrics[%d] missing %r" % (path, i, field))
        if m["successes"] > m["trials"]:
            fail("%s: metric %r has successes > trials"
                 % (path, m["name"]))
        for lo, hi in (("wilson_lower", "wilson_upper"),
                       ("clopper_pearson_lower", "clopper_pearson_upper")):
            if not (0.0 <= m[lo] <= m["point"] <= m[hi] <= 1.0):
                fail("%s: metric %r interval disordered: "
                     "%s=%r point=%r %s=%r"
                     % (path, m["name"], lo, m[lo], m["point"], hi, m[hi]))
        by_name[m["name"]] = m
    if doc["target_metric"] not in by_name:
        fail("%s: target_metric %r has no metrics entry"
             % (path, doc["target_metric"]))
    if expect_early_stop and doc["stop_reason"] == "max_replications":
        fail("%s: expected the sequential rule to stop before the cap, "
             "but the campaign ran all %r replications"
             % (path, doc["max_replications"]))
    print("OK: %s: %s, %d/%d replications, stop=%s"
          % (path, CERT_SCHEMA, doc["replications"],
             doc["max_replications"], doc["stop_reason"]))

    if reference is None:
        return
    ref = load(reference)
    metric_name = ref.get("target_metric", doc["target_metric"])
    if metric_name not in by_name:
        fail("%s: reference targets metric %r, absent from certificate"
             % (path, metric_name))
    m = by_name[metric_name]
    floor = ref.get("min_wilson_lower")
    if floor is None:
        fail("%s: no min_wilson_lower in reference" % reference)
    if "min_confidence" in ref and doc["confidence"] < ref["min_confidence"]:
        fail("%s: confidence %r below the reference's required %r"
             % (path, doc["confidence"], ref["min_confidence"]))
    if m["wilson_lower"] < floor:
        fail("reliability regression: certified %s lower bound %.6f fell "
             "below the reference floor %.6f (point %.6f over %d trials).\n"
             "  If the drop is intended, update %s with justification."
             % (metric_name, m["wilson_lower"], floor, m["point"],
                m["trials"], reference))
    print("OK: certified %s >= %.6f (floor %.6f, %d%% confidence)"
          % (metric_name, m["wilson_lower"], floor,
             round(doc["confidence"] * 100)))


def validate_snapshot_doc(doc, where):
    schema = doc.get("schema")
    if schema == HEATMAP_SCHEMA:
        for field in ("cycle", "scheme", "width", "height", "grids"):
            if field not in doc:
                fail("%s: missing field %r" % (where, field))
        w, h = doc["width"], doc["height"]
        grids = doc["grids"]
        if not isinstance(grids, dict) or not grids:
            fail("%s: grids is not a non-empty object" % where)
        for name, grid in grids.items():
            if len(grid) != h:
                fail("%s: grid %r has %d rows, want height=%d"
                     % (where, name, len(grid), h))
            for y, row in enumerate(grid):
                if len(row) != w:
                    fail("%s: grid %r row %d has %d cols, want width=%d"
                         % (where, name, y, len(row), w))
        return "%s %dx%d, %d grid(s)" % (schema, w, h, len(grids))
    if schema != SNAPSHOT_SCHEMA:
        fail("%s: schema is %r, want %r or %r"
             % (where, schema, SNAPSHOT_SCHEMA, HEATMAP_SCHEMA))
    for field in ("seq", "cycle", "total_cycles", "scheme", "width",
                  "height", "progress", "stalled", "globals", "incidents"):
        if field not in doc:
            fail("%s: missing field %r" % (where, field))
    for field in ("injected_flits", "ejected_flits", "in_network_flits",
                  "queued_packets", "gated_routers", "hist_overflow"):
        if field not in doc["globals"]:
            fail("%s: globals missing %r" % (where, field))
    for field in ("total", "hard_fault_summary", "watchdog_stall"):
        if field not in doc["incidents"]:
            fail("%s: incidents missing %r" % (where, field))
    if not 0.0 <= doc["progress"] <= 1.0 + 1e-9:
        fail("%s: progress %r outside [0, 1]" % (where, doc["progress"]))
    w, h = doc["width"], doc["height"]
    if "campaign" in doc:
        for field in ("points_done", "points_total", "checkpoint_path"):
            if field not in doc["campaign"]:
                fail("%s: campaign missing %r" % (where, field))
        if doc["campaign"]["points_done"] > doc["campaign"]["points_total"]:
            fail("%s: campaign points_done > points_total" % where)
        return "%s campaign seq=%d %d/%d" % (
            schema, doc["seq"], doc["campaign"]["points_done"],
            doc["campaign"]["points_total"])
    if w <= 0 or h <= 0:
        fail("%s: run-mode snapshot with non-positive %dx%d mesh"
             % (where, w, h))
    if "nodes" not in doc:
        fail("%s: run-mode snapshot missing 'nodes'" % where)
    for name in ("mode", "power_state", "occupancy", "queued",
                 "ejected_packets", "latency_sum", "gated_cycles"):
        arr = doc["nodes"].get(name)
        if arr is None:
            fail("%s: nodes missing %r" % (where, name))
        if len(arr) != w * h:
            fail("%s: nodes.%s has %d entries, want width*height=%d"
                 % (where, name, len(arr), w * h))
    return "%s seq=%d cycle=%d %dx%d" % (schema, doc["seq"], doc["cycle"],
                                         w, h)


def validate_snapshot(path):
    # Auto-detect: a single JSON document (from /snapshot or /heatmap) or
    # an ops_stream= JSONL flight recording (one snapshot per line).
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        fail("%s: %s" % (path, e))
    try:
        docs = [json.loads(text)]
    except ValueError:
        docs = []
        for i, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            try:
                docs.append(json.loads(line))
            except ValueError as e:
                fail("%s: line %d: %s" % (path, i + 1, e))
    if not docs:
        fail("%s: no snapshot documents" % path)
    last = None
    prev_seq = 0
    for i, doc in enumerate(docs):
        last = validate_snapshot_doc(doc, "%s[%d]" % (path, i))
        seq = doc.get("seq")
        if seq is not None:
            if seq <= prev_seq:
                fail("%s[%d]: seq %d not increasing (previous %d)"
                     % (path, i, seq, prev_seq))
            prev_seq = seq
    print("OK: %s: %d snapshot(s), last: %s" % (path, len(docs), last))


PROM_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? "
    r"(-?(?:[0-9.eE+-]+|NaN|Inf|\+Inf|-Inf))$")


def validate_prometheus(path):
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail("%s: %s" % (path, e))
    typed = set()
    seen = set()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                fail("%s: line %d: malformed TYPE comment: %r"
                     % (path, i + 1, line))
            typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        m = PROM_SAMPLE_RE.match(line)
        if not m:
            fail("%s: line %d: not a valid sample line: %r"
                 % (path, i + 1, line))
        name = m.group(1)
        if name not in typed:
            fail("%s: line %d: sample %r has no preceding # TYPE"
                 % (path, i + 1, name))
        seen.add(name)
        float(m.group(3).replace("+Inf", "inf").replace("-Inf", "-inf"))
    absent = PROMETHEUS_REQUIRED - seen
    if absent:
        fail("%s: required series missing: %s" % (path, sorted(absent)))
    print("OK: %s: %d series, all required Fly-Over series present"
          % (path, len(seen)))


def strip_volatile(node):
    if isinstance(node, dict):
        return {k: strip_volatile(v) for k, v in node.items()
                if k not in VOLATILE_KEYS}
    if isinstance(node, list):
        return [strip_volatile(v) for v in node]
    return node


def diff_manifests(path_a, path_b):
    a = strip_volatile(load(path_a))
    b = strip_volatile(load(path_b))
    # Byte-compare a canonical re-serialization: the writer itself is
    # deterministic, but stripping keys changes comma placement, so the
    # comparison re-renders both sides identically.
    sa = json.dumps(a, sort_keys=True, separators=(",", ":"))
    sb = json.dumps(b, sort_keys=True, separators=(",", ":"))
    if sa == sb:
        print("OK: %s == %s (modulo volatile fields %s)"
              % (path_a, path_b, sorted(VOLATILE_KEYS)))
        return
    # Locate the first differing path for a useful CI message.
    def first_diff(x, y, path="$"):
        if type(x) is not type(y):
            return path, "type %s vs %s" % (type(x).__name__,
                                            type(y).__name__)
        if isinstance(x, dict):
            for k in sorted(set(x) | set(y)):
                if k not in x:
                    return "%s.%s" % (path, k), "only in second"
                if k not in y:
                    return "%s.%s" % (path, k), "only in first"
                d = first_diff(x[k], y[k], "%s.%s" % (path, k))
                if d:
                    return d
            return None
        if isinstance(x, list):
            if len(x) != len(y):
                return path, "length %d vs %d" % (len(x), len(y))
            for i, (xi, yi) in enumerate(zip(x, y)):
                d = first_diff(xi, yi, "%s[%d]" % (path, i))
                if d:
                    return d
            return None
        if x != y:
            return path, "%r vs %r" % (x, y)
        return None

    where, what = first_diff(a, b)
    fail("manifests differ beyond volatile fields at %s: %s\n"
         "  first:  %s\n  second: %s" % (where, what, path_a, path_b))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--trace", metavar="FILE",
                    help="validate a Chrome-trace-event JSON file")
    ap.add_argument("--manifest", metavar="FILE",
                    help="validate a run/sweep manifest")
    ap.add_argument("--diff-manifests", nargs=2, metavar=("A", "B"),
                    help="compare two manifests modulo volatile fields")
    ap.add_argument("--certificate", metavar="FILE",
                    help="validate a flyover-certificate-v1 document")
    ap.add_argument("--reference", metavar="FILE",
                    help="with --certificate: enforce the checked-in "
                         "certified-bound floor (regression gate)")
    ap.add_argument("--expect-early-stop", action="store_true",
                    help="with --certificate: fail unless the sequential "
                         "rule resolved before the replication cap")
    ap.add_argument("--snapshot", metavar="FILE",
                    help="validate a flyover-snapshot-v1 / heatmap document "
                         "or an ops_stream= JSONL recording")
    ap.add_argument("--prometheus", metavar="FILE",
                    help="validate a Prometheus text exposition from "
                         "/metrics")
    args = ap.parse_args()

    if not (args.trace or args.manifest or args.diff_manifests
            or args.certificate or args.snapshot or args.prometheus):
        ap.error("nothing to do: pass --trace, --manifest, --certificate, "
                 "--snapshot, --prometheus and/or --diff-manifests")
    if (args.reference or args.expect_early_stop) and not args.certificate:
        ap.error("--reference/--expect-early-stop require --certificate")
    if args.trace:
        validate_trace(args.trace)
    if args.manifest:
        validate_manifest(args.manifest)
    if args.certificate:
        validate_certificate(args.certificate, reference=args.reference,
                             expect_early_stop=args.expect_early_stop)
    if args.snapshot:
        validate_snapshot(args.snapshot)
    if args.prometheus:
        validate_prometheus(args.prometheus)
    if args.diff_manifests:
        diff_manifests(*args.diff_manifests)


if __name__ == "__main__":
    main()
