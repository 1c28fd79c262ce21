"""Exact log evidence by dynamic programming over record subsets.

This is the benchmark's own reference for ``oracle-check``; it shares no
code with ``vblink.oracle``.  With the per-entity noise distributions
integrated out, an assignment's weight factorises over the record sets
S_1..S_K it puts on each entity:

    p(x) = K**-N * sum over ordered partitions (S_1..S_K) of prod_k g(S_k)
    log g(S) = sum_f [ log B(alpha_f + c_f(S)) - log B(alpha_f) ]

with g(empty) = 1.  Summing entity by entity over the subsets of the
records not yet placed visits 3**N (subset, submask) pairs for K = 3,
which is the same count as the enumeration but a different algorithm.
"""

import csv
import math


def read_records(db_paths):
    """Rows of every database CSV, header dropped, in file order."""
    records = []
    for path in db_paths:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        records.extend(tuple(row) for row in rows[1:])
    return records


def read_cardinalities(schema_path):
    """Number of values per field from a ``name<TAB>v1,v2,...`` schema file."""
    with open(schema_path, encoding="utf-8") as fh:
        return [len(line.rstrip("\n").split("\t")[1].split(",")) for line in fh if line.strip()]


def log_evidence(records, cardinalities, entity_count, alpha):
    """log p(x) under a symmetric Dirichlet(alpha) noise prior."""
    n = len(records)
    full = (1 << n) - 1
    log_g = [0.0] * (full + 1)
    for subset in range(1, full + 1):
        members = [records[i] for i in range(n) if subset >> i & 1]
        total = 0.0
        for f, v_f in enumerate(cardinalities):
            counts = {}
            for row in members:
                counts[row[f]] = counts.get(row[f], 0) + 1
            for c in counts.values():
                total += math.lgamma(alpha + c) - math.lgamma(alpha)
            total -= math.lgamma(v_f * alpha + len(members)) - math.lgamma(v_f * alpha)
        log_g[subset] = total
    # Rescale g(S) by exp(shift * |S|); every partition gains exp(shift * N).
    shift = -log_g[full] / n
    g = [math.exp(v + shift * bin(s).count("1")) for s, v in enumerate(log_g)]

    ways = g  # ways[T]: weight of placing the records of T on the entities so far
    for level in range(1, entity_count):
        last = level == entity_count - 1
        nxt = [0.0] * (full + 1)
        for placed in [full] if last else range(full + 1):
            acc = 0.0
            sub = placed
            while True:
                acc += g[sub] * ways[placed ^ sub]
                if sub == 0:
                    break
                sub = (sub - 1) & placed
            nxt[placed] = acc
        ways = nxt
    return math.log(ways[full]) - shift * n - n * math.log(entity_count)
