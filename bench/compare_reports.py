#!/usr/bin/env python3
"""Check that two reports of one tool agree on every simulated field.

Usage: python3 bench/compare_reports.py OLD.json NEW.json

Both files must be htmsim reports written by the same tool (their
envelopes' "tool" must match): any two BENCH_perf, BENCH_figures,
BENCH_server or BENCH_sync files, for instance. Every number is
compared as its JSON text, so equal means byte-identical.
Host-time fields (wall-clock nanoseconds, rates per host second,
bench_perf's layers block) and the provenance envelope may differ;
every other value must be present in both reports with the same text.
Prints how many simulated and host-time values were compared and exits
1, listing the paths, if a simulated value differs or exists on one
side only.
"""

import json
import sys

# Keys whose whole subtree is host time or build provenance.
HOST_KEYS = {
    "provenance",
    "total_host_ns",
    "wall_host_ns",
    "geomean_cell_host_ns",
    "host_ns",
    "host_tm_ns",
    "tx_per_sec",
    "ns_per_access",
    "layers",
}


def leaves(node, path, host, out):
    """Collect (path -> (is_host, value text)) for every leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            leaves(value, path + "." + key, host or key in HOST_KEYS, out)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            leaves(value, "%s[%d]" % (path, index), host, out)
    else:
        out[path] = (host, json.dumps(node))
    return out


def load(path):
    with open(path) as handle:
        # Numbers stay strings: their text is what must match.
        doc = json.load(handle, parse_float=str, parse_int=str)
    if not doc.get("tool"):
        sys.exit("%s is not an htmsim report (no tool)" % path)
    return doc["tool"], leaves(doc, "", False, {})


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: compare_reports.py OLD.json NEW.json")
    old_tool, old = load(sys.argv[1])
    new_tool, new = load(sys.argv[2])
    if old_tool != new_tool:
        sys.exit("tools differ: %s wrote %s, %s wrote %s"
                 % (old_tool, sys.argv[1], new_tool, sys.argv[2]))
    sim_paths = sorted(p for p in old.keys() | new.keys()
                       if not old.get(p, new.get(p))[0])
    differ = [p for p in sim_paths if old.get(p) != new.get(p)]
    host_old = {p for p, (host, _) in old.items() if host}
    host_new = {p for p, (host, _) in new.items() if host}
    changed = sum(1 for p in host_old & host_new if old[p] != new[p])
    print("simulated values: %d compared, %d differ"
          % (len(sim_paths), len(differ)))
    print("host-time and provenance values: %d changed, %d added, "
          "%d removed" % (changed, len(host_new - host_old),
                          len(host_old - host_new)))
    for path in differ[:20]:
        print("  %s: %s -> %s" % (path, old.get(path, (0, "absent"))[1],
                                 new.get(path, (0, "absent"))[1]))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
