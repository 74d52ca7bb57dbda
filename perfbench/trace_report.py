#!/usr/bin/env python3
"""Turns a perfbench span file into the per-layer table and metrics.

    python3 perfbench/trace_report.py <span-file.json>

The span file is Chrome trace-event JSON written by a traced run
(`run.py --trace 1`): one "X" event per span, each with args id, parent
(-1 for an op's root span) and op, plus the run's counts in "otherData".
A span's self time is its duration minus its child spans' durations.
Prints the table, trace coverage and overhead, and for fleet_mixed the
command kinds above the p99 of command latency; `layer_metrics` returns
the per-layer metrics run.py reports.
"""
import json
import sys
from collections import Counter, defaultdict

# Handle spans of the fleet workload that produce records (split by chip).
RECORD_POLLS = ("host.poll_neuro", "host.poll_dna")


def load(path):
    """Returns (spans, other): spans as (name, ts_us, dur_us, id, parent, op)
    tuples in file order, other as the otherData dict."""
    # The driver writes one event per line, so the file is read line by
    # line instead of as one document, which keeps memory small.
    spans = []
    other = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith('{"name"'):
                ev = json.loads(line.rstrip(","))
                a = ev["args"]
                spans.append((ev["name"], ev["ts"], ev["dur"], a["id"],
                              a["parent"], a["op"]))
            elif line.startswith("],"):
                other = json.loads("{" + line[2:])["otherData"]
    return spans, other


def analyze(spans, other):
    """Per-layer table rows and metrics from the spans of one traced run."""
    child_time = defaultdict(float)
    for name, _, dur, _, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += dur
    roots = [s for s in spans if s[4] < 0]
    total_us = sum(s[2] for s in roots)
    n_ops = len(roots)
    if n_ops == 0 or total_us <= 0:
        raise ValueError("trace holds no timed ops")

    self_us = defaultdict(float)
    dur_us = defaultdict(float)
    count = Counter()
    for name, _, dur, sid, _, _ in spans:
        self_us[name] += dur - child_time.get(sid, 0.0)
        dur_us[name] += dur
        count[name] += 1

    rows = []
    for name in sorted(self_us, key=lambda n: -self_us[n]):
        rows.append((name, count[name], self_us[name] / 1e3,
                     self_us[name] / n_ops / 1e3, self_us[name] / total_us))
    covered = sum(child_time.get(s[3], 0.0) for s in roots)

    def per_op_ms(name):
        return self_us.get(name, 0.0) / n_ops / 1e3

    def share(*names):
        return sum(self_us.get(n, 0.0) for n in names) / total_us

    def mean_us(name):
        return dur_us[name] / count[name] if count[name] else 0.0

    m = {
        "neurochip.capture_ms": per_op_ms("neurochip.capture"),
        "neurochip.capture_share": share("neurochip.capture"),
        "core.wire_ms": per_op_ms("core.wire"),
        "core.wire_share": share("core.wire"),
        "neuro.prepare_ms": per_op_ms("neuro.prepare"),
        "neuro.eval_ms": per_op_ms("neuro.eval"),
        "dnachip.rung1_ms": per_op_ms("dnachip.rung1"),
        "dnachip.rung7_ms": per_op_ms("dnachip.rung7"),
        "dnachip.rung13_ms": per_op_ms("dnachip.rung13"),
        "dnachip.rung13_share": share("dnachip.rung13"),
        "host.cheap_us": mean_us("host.cheap"),
        "host.poll_neuro_us": mean_us("host.poll_neuro"),
        "host.poll_dna_us": mean_us("host.poll_dna"),
        "host.poll_share": share(*RECORD_POLLS),
        "snapshot.checkpoint_us": mean_us("snapshot.checkpoint"),
        "snapshot.restore_us": mean_us("snapshot.restore"),
        # FleetClient call minus the server's handling of it.
        "host.client_us": (self_us.get("host.client", 0.0) /
                           count["host.client"]
                           if count["host.client"] else 0.0),
        "trace.coverage_frac": covered / total_us,
    }
    fleet = count["host.client"] > 0

    above = Counter()
    if fleet:
        # Each command's server-side span: the grandchild of its root.
        parent_of = {s[3]: s[4] for s in spans}
        handle = {}
        for name, _, _, sid, parent, _ in spans:
            if parent >= 0 and parent_of.get(parent, -1) >= 0:
                handle[parent_of[parent]] = name
        ordered = sorted(s[2] for s in roots)
        p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
        for s in roots:
            if s[2] > p99:
                above[s[0] + "/" + handle.get(s[3], "-")] += 1
        n_above = sum(above.values())
        m["host.p99_record_poll_frac"] = (
            sum(v for k, v in above.items() if k.endswith(RECORD_POLLS))
            / n_above if n_above else 0.0)
    else:
        m["host.p99_record_poll_frac"] = 0.0

    untraced = other.get("untraced_ops_per_s", 0.0)
    traced = other.get("traced_ops_per_s", 0.0)
    m["trace.overhead_frac"] = 1.0 - traced / untraced if untraced else 0.0
    for key in ("core.wire_bits", "core.retries", "core.lost_words",
                "neurochip.active_px_frac", "dnachip.serial_bits",
                "dnachip.sat_rung13_frac", "host.records_per_poll",
                "snapshot.checkpoint_bytes_neuro",
                "snapshot.checkpoint_bytes_dna"):
        m[key] = float(other.get(key, 0.0))
    return rows, m, above, n_ops, total_us


def render(rows, metrics, above, n_ops, total_us, out=sys.stdout):
    print(f"traced ops: {n_ops}, traced op time: {total_us / 1e6:.3f} s",
          file=out)
    print(f"{'span':<22}{'count':>9}{'self_ms':>14}{'ms/op':>12}{'share':>9}",
          file=out)
    for name, cnt, self_ms, per_op, frac in rows:
        print(f"{name:<22}{cnt:>9}{self_ms:>14.3f}{per_op:>12.5f}"
              f"{frac:>9.4f}", file=out)
    print(f"trace.coverage_frac {metrics['trace.coverage_frac']:.4f}  "
          f"trace.overhead_frac {metrics['trace.overhead_frac']:.4f}",
          file=out)
    if above:
        kinds = ", ".join(f"{k}={v}" for k, v in above.most_common())
        print(f"command kinds above p99: {kinds}", file=out)


def layer_metrics(path, out=sys.stdout):
    """Prints the report for `path` and returns its per-layer metrics."""
    rows, metrics, above, n_ops, total_us = analyze(*load(path))
    render(rows, metrics, above, n_ops, total_us, out)
    return metrics


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = layer_metrics(argv[1])
    for key in sorted(metrics):
        print(f"{key} {metrics[key]:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
