#!/usr/bin/env python3
"""Check that check_runner's replay artifact replays.

    python3 tests/replay_artifact.py CHECK_RUNNER

Each case runs a sweep that must fail (exit 1) under a flag that is
not the sweep's own, then runs the printed `replay:` line, which must
fail again with the same `reason:`. An artifact that drops the flag
replays clean, so this fails. Exits 1 naming each case that does.
"""

import re
import shlex
import subprocess
import sys

CASES = (
    ["--ring-capacity", "64", "--seeds", "1", "--workloads",
     "hashtable", "--machines", "intel"],
    ["--liveness", "--max-section-cycles", "2000", "--seeds", "3",
     "--workloads", "hashtable", "--machines", "intel"],
)


def run(command):
    """(exit code, stdout) of @command; exit None if it cannot start."""
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120)
    except OSError as error:
        return None, str(error)
    return done.returncode, done.stdout


def field(output, name):
    """The first `name: value` line of @output, as its value."""
    found = re.search(r"^\s*%s: (.*)$" % name, output, re.MULTILINE)
    return found.group(1) if found else None


def check(runner, case):
    """Problems with one case, as a list of strings."""
    code, output = run([runner] + case)
    if code != 1:
        return ["the sweep exited %s, not 1:\n%s" % (code, output)]
    reason = field(output, "reason")
    replay = field(output, "replay")
    if reason is None or replay is None:
        return ["the sweep printed no reason or replay line:\n" + output]
    code, replayed = run(shlex.split(replay))
    if code != 1:
        return ["the replay exited %s, not 1: %s\n%s"
                % (code, replay, replayed)]
    if field(replayed, "reason") != reason:
        return ["the replay failed for another reason: %r, not %r"
                % (field(replayed, "reason"), reason)]
    return []


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip())
        return 2
    failed = False
    for case in CASES:
        found = check(argv[0], case)
        label = " ".join(case)
        for problem in found:
            print("%s: %s" % (label, problem))
        failed = failed or bool(found)
        if not found:
            print("%s: replays" % label)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
