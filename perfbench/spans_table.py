#!/usr/bin/env python3
"""Rebuilds the per-layer table from a perfbench spans file.

    python3 perfbench/spans_table.py SPANS.jsonl

The first line of the file is a JSON header (format tag, workload, seed,
the ladder orders, the span-name table and the field order); every other
line is one span as a JSON array in that field order, with times relative
to the header's origin.

For every layer entry point the table gives ns/key (summed span durations
over summed keys) and the self time the benchmark defines: ns/key minus the
ns/key of the layer below it in the ladder.  For every pass span it also
gives the child-coverage self time: the pass's duration minus the union of
its children's intervals, i.e. the time the pass spent outside calls into
the layer.
"""

import json
import sys
from collections import defaultdict


def load(path):
    with open(path) as f:
        header = json.loads(f.readline())
        if header.get("format") != "perfbench-spans-v1":
            raise ValueError(f"{path}: not a perfbench-spans-v1 file")
        fields = header["fields"]
        spans = [dict(zip(fields, json.loads(line))) for line in f if line.strip()]
    names = header["names"]
    for s in spans:
        s["name"] = names[s["name"]]
    return header, spans


def covered(intervals):
    """Total length of the union of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def table(header, spans):
    busy = defaultdict(int)
    keys = defaultdict(int)
    calls = defaultdict(int)
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start_ns"], s["end_ns"]))
        if not s["name"].startswith("pass:") and s["name"] != "run":
            busy[s["name"]] += s["end_ns"] - s["start_ns"]
            keys[s["name"]] += s["keys"]
            calls[s["name"]] += 1

    def ns_per_key(name):
        return busy[name] / keys[name] if keys[name] else 0.0

    lines = [f"per-layer table: {header.get('workload')} seed {header.get('seed')}",
             f"{'layer entry point':<24}{'calls':>9}{'ns/key':>12}{'self ns/key':>14}"]
    for ladder in ("query_ladder", "insert_ladder"):
        below = None
        for name in header.get(ladder, []):
            self_ns = "" if below is None else f"{ns_per_key(name) - ns_per_key(below):14.2f}"
            lines.append(f"{name:<24}{calls[name]:>9}{ns_per_key(name):12.2f}{self_ns}")
            below = name
    in_ladder = set(header.get("query_ladder", [])) | set(header.get("insert_ladder", []))
    for name in sorted(busy):
        if name not in in_ladder:
            lines.append(f"{name:<24}{calls[name]:>9}{ns_per_key(name):12.2f}")
    lines.append(f"{'pass (outside calls)':<24}{'calls':>9}{'pass ms':>12}{'self ms':>14}")
    for s in spans:
        if s["name"].startswith("pass:"):
            duration = s["end_ns"] - s["start_ns"]
            self_ns = duration - covered(children[s["span"]])
            lines.append(f"{s['name'][5:]:<24}{len(children[s['span']]):>9}"
                         f"{duration / 1e6:12.2f}{self_ns / 1e6:14.2f}")
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    header, spans = load(argv[1])
    print(table(header, spans))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
