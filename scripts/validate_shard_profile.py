#!/usr/bin/env python3
"""Validate exported VIRTSIM_SHARD_PROFILE JSON files.

Usage: scripts/validate_shard_profile.py FILE [FILE...]

Checks each file against the "virtsim-shard-profile-3" schema:
required keys, sparse lane_detail rows (one per lane that ran or
stalled, ascending by lane id, all-zero lanes elided), internally
consistent wall/busy/wait accounting (busy + wait + stall never
exceeds lanes * wall beyond rounding), round counts, and well-formed
critical-channel records. CI runs this over the shard-profile
artifact the paper-bench job exports so a profiler regression (empty
lane table, negative wait, unsorted channels) fails the build.

The numbers themselves are host wall-clock and are NOT compared
against anything — only their shape and invariants are.

Exit status: 0 when every file validates, 1 otherwise.
"""

import argparse
import json
import sys

REQUIRED_TOP = [
    "schema", "lanes", "lanes_profiled", "rounds", "parallel_rounds",
    "wall_ns", "busy_ns_total", "busy_over_wall", "lane_detail",
    "critical_channels",
]
REQUIRED_LANE = [
    "lane", "busy_ns", "wait_ns", "stall_ns", "events",
    "stall_rounds",
]
REQUIRED_CHANNEL = ["dst", "src", "rounds", "channel"]


def validate(path):
    errors = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    for key in REQUIRED_TOP:
        if key not in doc:
            errors.append(f"{path}: missing top-level key '{key}'")
    if errors:
        return errors

    if doc["schema"] != "virtsim-shard-profile-3":
        errors.append(f"{path}: unknown schema '{doc['schema']}'")
    lanes = doc["lanes"]
    if lanes < 1:
        errors.append(f"{path}: profile covers no lanes")
    if doc["parallel_rounds"] > doc["rounds"]:
        errors.append(
            f"{path}: parallel_rounds {doc['parallel_rounds']} > "
            f"rounds {doc['rounds']}")
    if doc["busy_over_wall"] < 0:
        errors.append(f"{path}: negative busy_over_wall")

    detail = doc["lane_detail"]
    if len(detail) != doc["lanes_profiled"]:
        errors.append(
            f"{path}: lane_detail has {len(detail)} rows but "
            f"lanes_profiled is {doc['lanes_profiled']}")
    if len(detail) > lanes:
        errors.append(
            f"{path}: lane_detail has {len(detail)} rows for "
            f"{lanes} lanes")
    if doc["rounds"] > 0 and not detail:
        errors.append(
            f"{path}: {doc['rounds']} rounds ran but no lane ever "
            "ran or stalled")
    busy_total = 0
    prev_lane = -1
    for i, row in enumerate(detail):
        for key in REQUIRED_LANE:
            if key not in row:
                errors.append(f"{path}: lane row missing '{key}'")
                break
        else:
            if not 0 <= row["lane"] < lanes:
                errors.append(
                    f"{path}: lane_detail[{i}] names lane "
                    f"{row['lane']}, out of range")
            if row["lane"] <= prev_lane:
                errors.append(
                    f"{path}: lane_detail[{i}] is lane "
                    f"{row['lane']}; rows must ascend by lane id")
            prev_lane = row["lane"]
            for key in REQUIRED_LANE[1:]:
                if row[key] < 0:
                    errors.append(
                        f"{path}: lane {row['lane']} has negative "
                        f"{key}")
            # The schema elides all-zero lanes; a row of zeros means
            # the exporter's own filter broke.
            if (row["busy_ns"] == 0 and row["stall_ns"] == 0 and
                    row["events"] == 0 and row["stall_rounds"] == 0):
                errors.append(
                    f"{path}: lane {row['lane']} row is all-zero; "
                    "sparse lane_detail must elide it")
            # waitNs() is clamped at export: a lane can never account
            # for much more than the whole run's wall time (1% + 1 us
            # of slack absorbs per-round clock rounding).
            accounted = row["busy_ns"] + row["wait_ns"] + row["stall_ns"]
            if accounted > doc["wall_ns"] * 1.01 + 1000:
                errors.append(
                    f"{path}: lane {row['lane']} accounts "
                    f"{accounted} ns > wall {doc['wall_ns']} ns")
            if row["stall_rounds"] > doc["rounds"]:
                errors.append(
                    f"{path}: lane {row['lane']} stalled "
                    f"{row['stall_rounds']} rounds out of "
                    f"{doc['rounds']}")
            busy_total += row["busy_ns"]
    if busy_total != doc["busy_ns_total"]:
        errors.append(
            f"{path}: busy_ns_total {doc['busy_ns_total']} != "
            f"sum of lane busy_ns {busy_total}")

    prev_rounds = None
    for c in doc["critical_channels"]:
        for key in REQUIRED_CHANNEL:
            if key not in c:
                errors.append(
                    f"{path}: critical channel missing '{key}'")
                break
        else:
            if not (0 <= c["dst"] < lanes and 0 <= c["src"] < lanes):
                errors.append(
                    f"{path}: critical channel lane out of range: "
                    f"{c['src']} -> {c['dst']}")
            if c["rounds"] < 1:
                errors.append(
                    f"{path}: critical channel with zero rounds")
            if prev_rounds is not None and c["rounds"] > prev_rounds:
                errors.append(
                    f"{path}: critical_channels not sorted worst "
                    "first")
            prev_rounds = c["rounds"]

    if not errors:
        print(f"{path}: OK ({doc['lanes_profiled']}/{lanes} lanes "
              f"profiled, {doc['rounds']} rounds, "
              f"{doc['parallel_rounds']} parallel, busy/wall "
              f"{doc['busy_over_wall']:.2f})")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="+")
    args = ap.parse_args()

    all_errors = []
    for path in args.files:
        all_errors.extend(validate(path))
    for e in all_errors:
        print(f"validate_shard_profile: {e}", file=sys.stderr)
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main())
