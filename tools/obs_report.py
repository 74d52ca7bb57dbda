#!/usr/bin/env python3
"""Render bench run manifests and decoded metrics snapshots as a text
report.

Inputs are the JSON artifacts the obs layer writes into results/ (or the
CI bench scratch dir):

  * ``*.manifest.json`` — per-bench run manifests (phases with wall time
    and RSS, plus the in-process metrics registry when the bench was
    built with BIOSENSE_OBS=ON);
  * a decoded metrics snapshot (``--metrics FILE``) in the registry JSON
    shape ``{"counters": {...}, "gauges": {...}, "histograms": {...}}`` —
    e.g. ``bench_fleet_server.metrics.json``, which the fleet bench
    fetches over the wire via the kGetMetrics command, so the report
    shows exactly what a remote monitor sees.

The report has one section per manifest (phase table: wall seconds,
share of the run, peak RSS) and one for the metrics snapshot (counters,
gauges, histogram summaries, and a per-session rollup of any
``<prefix>.s<N>.<instrument>`` names minted by per-session observability).

Usage:
  tools/obs_report.py [--results-dir DIR] [--metrics FILE] [manifests...]

With no explicit manifest paths, every ``*.manifest.json`` under
--results-dir (default ``results``) is rendered. Exit code 0 on success,
1 when an input is missing or malformed, 2 on usage errors.
"""

import argparse
import glob
import json
import os
import re
import sys

_SESSION = re.compile(r"^([a-z0-9_]+)\.s(\d+)\.(.+)$")


def fmt_num(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_phases(name, manifest, out):
    phases = manifest.get("phases", [])
    out.append(f"== {manifest.get('bench', name)} ==")
    out.append(f"  obs_enabled: {manifest.get('obs_enabled', False)}"
               f"   peak_rss_kb: {manifest.get('peak_rss_kb', '?')}")
    if not phases:
        out.append("  (no phases recorded)")
        return
    total = sum(p.get("wall_s", 0.0) for p in phases) or 1.0
    width = max(len(p.get("name", "?")) for p in phases)
    out.append(f"  {'phase'.ljust(width)}  {'wall [s]':>10}  {'share':>6}  "
               f"{'rss [kb]':>9}")
    for p in phases:
        wall = p.get("wall_s", 0.0)
        out.append(f"  {p.get('name', '?').ljust(width)}  {wall:>10.4f}  "
                   f"{wall / total:>6.1%}  {p.get('rss_kb', 0):>9}")


def render_metrics(title, metrics, out):
    out.append(f"== {title} ==")
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})

    # Per-session instruments (fleet.s42.ring.depth, ...) roll up into one
    # table per session; everything else lists flat.
    sessions = {}

    def split(kind, name, value):
        m = _SESSION.match(name)
        if m:
            key = (m.group(1), int(m.group(2)))
            sessions.setdefault(key, []).append((m.group(3), kind, value))
            return True
        return False

    flat_counters = {n: v for n, v in counters.items()
                     if not split("counter", n, v)}
    flat_gauges = {n: v for n, v in gauges.items()
                   if not split("gauge", n, v)}

    if flat_counters:
        width = max(map(len, flat_counters))
        out.append("  counters:")
        for name in sorted(flat_counters):
            out.append(f"    {name.ljust(width)}  "
                       f"{fmt_num(flat_counters[name])}")
    if flat_gauges:
        width = max(map(len, flat_gauges))
        out.append("  gauges:")
        for name in sorted(flat_gauges):
            out.append(f"    {name.ljust(width)}  "
                       f"{fmt_num(flat_gauges[name])}")
    if histograms:
        out.append("  histograms:")
        for name in sorted(histograms):
            h = histograms[name]
            count = h.get("count", 0)
            mean = h.get("sum", 0.0) / count if count else 0.0
            out.append(f"    {name}: count={count} mean={mean:.6g} "
                       f"overflow={h.get('overflow', 0)}")
            for bucket in h.get("buckets", []):
                out.append(f"      le {fmt_num(bucket.get('le'))}: "
                           f"{bucket.get('count', 0)}")
    for (prefix, sid) in sorted(sessions):
        out.append(f"  session {prefix}.s{sid}:")
        rows = sorted(sessions[(prefix, sid)])
        width = max(len(r[0]) for r in rows)
        for instrument, kind, value in rows:
            out.append(f"    {instrument.ljust(width)}  {fmt_num(value)}  "
                       f"({kind})")
    if not (flat_counters or flat_gauges or histograms or sessions):
        out.append("  (snapshot is empty)")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(
        description="render obs manifests + metrics snapshots as text")
    parser.add_argument("--results-dir", default="results")
    parser.add_argument("--metrics", default=None,
                        help="decoded metrics-snapshot JSON to render")
    parser.add_argument("manifests", nargs="*",
                        help="manifest files (default: *.manifest.json "
                             "under --results-dir)")
    args = parser.parse_args()

    paths = args.manifests or sorted(
        glob.glob(os.path.join(args.results_dir, "*.manifest.json")))
    if not paths and args.metrics is None:
        print(f"obs_report: nothing to render under {args.results_dir}/",
              file=sys.stderr)
        return 1

    out = []
    failed = False
    for path in paths:
        try:
            manifest = load_json(path)
        except (OSError, json.JSONDecodeError) as err:
            print(f"obs_report: {path}: {err}", file=sys.stderr)
            failed = True
            continue
        render_phases(os.path.basename(path), manifest, out)
        embedded = manifest.get("metrics")
        if embedded:
            render_metrics(f"{manifest.get('bench', path)} metrics "
                           "(in-process registry)", embedded, out)
        out.append("")
    if args.metrics is not None:
        try:
            snapshot = load_json(args.metrics)
        except (OSError, json.JSONDecodeError) as err:
            print(f"obs_report: {args.metrics}: {err}", file=sys.stderr)
            failed = True
        else:
            render_metrics(f"{os.path.basename(args.metrics)} "
                           "(wire-decoded snapshot)", snapshot, out)
            out.append("")
    print("\n".join(out).rstrip())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
