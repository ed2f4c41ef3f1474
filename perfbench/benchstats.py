"""Statistics and table arithmetic for the virtsim benchmark.

Pure functions over plain Python data, so test_benchstats.py can check
them on hand-built inputs without building the simulator.
"""

import statistics

# StatRegistry counter prefixes per repo module (src/hw, src/hv, src/os).
LAYER_PREFIXES = {
    "hw": ("irqchip.", "gic.", "apic.", "mmu.", "nic.", "wire.", "mem."),
    "hv": ("kvm.", "xen.", "xenpv.", "virtio.", "grant.", "hv."),
    "os": ("vhost.", "netback."),
}

# The least number of samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values):
    """(Q1, Q2, Q3) as statistics.quantiles(values, n=4) gives them.

    A single sample is its own quartiles.
    """
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    With n sorted samples the candidate is the one at index
    n - TAIL_BEYOND - 1: exactly TAIL_BEYOND samples lie beyond it, and
    it sits at percentile 100 * (n - TAIL_BEYOND) / n. Returns
    (percentile, value), or None when n <= TAIL_BEYOND.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def failed_frac(attempted, failed):
    """Failed checks over attempted checks; no attempt counts as failure."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def self_times(spans):
    """Per-name (count, total seconds, self seconds) from a span list.

    Each span is a dict with id, name, start_ns, end_ns and parent (-1
    for a root). A span's self time is its duration minus the part of
    its interval that its direct children cover; overlapping children
    are counted once, and a child reaching outside its parent only
    counts inside it.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        reach = start
        kids = sorted(children.get(s["id"], []), key=lambda c: c["start_ns"])
        for c in kids:
            lo = max(c["start_ns"], reach)
            hi = min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(c["end_ns"], end))
        count, total, own = out.get(s["name"], (0, 0.0, 0.0))
        out[s["name"]] = (count + 1, total + (end - start) * 1e-9,
                          own + (end - start - covered) * 1e-9)
    return out


def span_seconds_by_pass(spans, name):
    """Summed duration of the named spans, per pass id (seconds)."""
    per = {}
    for s in spans:
        if s["name"] == name:
            per[s["pass"]] = per.get(s["pass"], 0.0) + (
                s["end_ns"] - s["start_ns"]) * 1e-9
    return per


def counts_increments(name):
    """Whether a counter's value approximates its number of updates.

    Byte counters add a size per update, and trace.health.* counters
    are topped up once at export, so neither counts updates.
    """
    return "bytes" not in name and not name.startswith("trace.health.")


def increments(counters):
    """Sum of the counters whose values count updates."""
    return sum(v for k, v in counters.items() if counts_increments(k))


def layer_sums(counters):
    """Sum update counts per module prefix group (LAYER_PREFIXES)."""
    sums = {layer: 0 for layer in LAYER_PREFIXES}
    for name, value in counters.items():
        if not counts_increments(name):
            continue
        for layer, prefixes in LAYER_PREFIXES.items():
            if name.startswith(prefixes):
                sums[layer] += value
    return sums


def vm_digest(counters, histogram_counts):
    """Traps, world switches and virtual IRQs over every vm: domain.

    The same rule as MetricsSnapshot::brief(): keys are "domain/name";
    trap counts also come from the sample counts of per-reason trap
    histograms.
    """
    traps = switches = virqs = 0
    for key, value in counters.items():
        domain, _, name = key.partition("/")
        if not domain.startswith("vm:"):
            continue
        if ".trap." in name:
            traps += value
        elif "world_switch" in name:
            switches += value
        elif "virq" in name:
            virqs += value
    for key, count in histogram_counts.items():
        domain, _, name = key.partition("/")
        if domain.startswith("vm:") and ".trap." in name:
            traps += count
    return {"traps": traps, "world_switches": switches, "virqs": virqs}


def paper_errors(cells, reference):
    """Per-cell signed error of the model against the paper.

    cells maps "table<N>/<row>/<column>" to the modelled value;
    reference is paper_reference.json. Returns a list of
    (table, row, column, model, paper, error_pct) for every published
    cell, in reference order. A published cell the model did not
    produce raises KeyError: fidelity is never computed on a subset.
    """
    rows = []
    for table in ("table2", "table3", "table5"):
        ref = reference[table]
        for row, values in ref["rows"].items():
            for column, paper in zip(ref["columns"], values):
                if paper is None:
                    continue
                model = cells[f"{table}/{row}/{column}"]
                rows.append((table, row, column, model, paper,
                             100.0 * (model - paper) / paper))
    return rows


def error_summary(rows):
    """(max |error| %, mean |error| %) over paper_errors() rows."""
    errs = [abs(r[5]) for r in rows]
    return max(errs), sum(errs) / len(errs)
