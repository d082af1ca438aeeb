#!/usr/bin/env python3
"""Check htmsim's JSON artifacts.

    python3 tests/check_reports.py FILE...

Every file must parse. A Perfetto trace (a document with
"traceEvents") must hold a non-empty event list in nanoseconds. Every
other file is a report: it must open with the envelope (schema
"htmsim-report-v1", the tool, non-empty provenance fields) and every
key must be snake_case, except the abort-cause names that key the
"causes" maps. Exits 1 naming each bad file.
"""

import json
import re
import sys

SCHEMA = "htmsim-report-v1"
PROVENANCE = ("git", "compiler", "build_type", "flags", "lto",
              "host_cores", "scale", "argv")
NAME_KEYED = ("causes",)
SNAKE = re.compile(r"^[a-z0-9]+(_[a-z0-9]+)*$")


def bad_keys(node, path=""):
    """Keys under @node that are not snake_case, as dotted paths."""
    found = []
    if isinstance(node, dict):
        for key, value in node.items():
            where = path + "." + key if path else key
            if not SNAKE.match(key):
                found.append(where)
            if key not in NAME_KEYED:
                found += bad_keys(value, where)
    elif isinstance(node, list):
        for value in node:
            found += bad_keys(value, path + "[]")
    return found


def problems(doc):
    if "traceEvents" in doc:
        if not isinstance(doc["traceEvents"], list) or not doc["traceEvents"]:
            return ["traceEvents is not a non-empty list"]
        if doc.get("displayTimeUnit") != "ns":
            return ["displayTimeUnit is not ns"]
        return []
    found = []
    if doc.get("schema") != SCHEMA:
        found.append("schema is %r, not %r" % (doc.get("schema"), SCHEMA))
    if not doc.get("tool"):
        found.append("no tool")
    provenance = doc.get("provenance") or {}
    for field in PROVENANCE:
        if provenance.get(field) in (None, "", []):
            found.append("provenance.%s is missing or empty" % field)
    found += ["key %s is not snake_case" % key
              for key in sorted(set(bad_keys(doc)))]
    return found


def main(paths):
    failed = False
    for path in paths:
        try:
            with open(path, encoding="utf-8") as file:
                found = problems(json.load(file))
        except (OSError, ValueError) as error:
            found = [str(error)]
        for problem in found:
            print("%s: %s" % (path, problem))
        failed = failed or bool(found)
        if not found:
            print("%s: ok" % path)
    return 1 if failed or not paths else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
