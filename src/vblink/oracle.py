"""Exact posterior quantities by exhaustive enumeration of assignments.

With the per-entity attribute distributions integrated out analytically
(Dirichlet-multinomial conjugacy), the weight of one assignment vector z is

    log w(z) = sum_k sum_f [ log B(alpha_f + c_kf(z)) - log B(alpha_f) ]

where c_kfv(z) counts records assigned to entity k carrying value v in
field f and B is the multivariate beta function.  The evidence is then
log p(x) = -N*log(K) + log sum_z w(z), a sum over all K**N assignment
vectors taken with the largest log w(z) shifted out so it cannot overflow.
This is a test fixture for the variational engine, not a scalable
inference path: instances beyond the enumeration budget are refused, never
approximated.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

ENUMERATION_BUDGET = 10**6

_BLOCK = 4096


class EnumerationBudgetError(ValueError):
    """K**N exceeds the assignment enumeration budget."""


@dataclass(eq=False)
class ExactPosterior:
    """Exact evidence, per-assignment posterior, and pairwise co-clustering.

    ``assignment_log_probs[i]`` is log p(z|x) for the assignment whose
    mixed-radix digits (record 0 least significant, base K) spell ``i``.
    ``cocluster[i, j]`` is P(z_i = z_j | x) over flat record indices.
    """

    log_evidence: float
    assignment_log_probs: np.ndarray
    cocluster: np.ndarray


def _assignment_total(corpus, hp, budget):
    total = hp.entity_count ** corpus.total_records
    if total > budget:
        raise EnumerationBudgetError(
            f"{hp.entity_count}^{corpus.total_records} = {total} assignments "
            f"exceeds the enumeration budget of {budget}"
        )
    return total


def _decode(ids, n, k):
    """Mixed-radix digits of each id: labels[b, i] = (ids[b] // k**i) % k."""
    labels = np.empty((ids.size, n), dtype=np.int64)
    rest = ids.copy()
    for i in range(n):
        labels[:, i] = rest % k
        rest //= k
    return labels


def _one_hot_fields(corpus):
    out = []
    for f in range(corpus.schema.field_count):
        v_f = corpus.schema.cardinalities[f]
        x = np.zeros((corpus.total_records, v_f))
        x[np.arange(corpus.total_records), corpus.values[:, f]] = 1.0
        out.append(x)
    return out


def _block_log_weights(ids, corpus, hp, field_one_hot):
    k = hp.entity_count
    labels = _decode(ids, corpus.total_records, k)
    z = (labels[:, :, None] == np.arange(k)[None, None, :]).astype(np.float64)
    cluster_sizes = z.sum(axis=1)  # (B, K)
    logw = np.zeros(ids.size)
    for a_f, x_f in zip(hp.alpha, field_one_hot):
        counts = np.einsum("bnk,nv->bkv", z, x_f)
        logw += gammaln(a_f[None, None, :] + counts).sum(axis=(1, 2))
        logw -= gammaln(a_f.sum() + cluster_sizes).sum(axis=1)
        logw -= k * float(gammaln(a_f).sum() - gammaln(a_f.sum()))
    return logw


def _id_blocks(total):
    return [
        np.arange(lo, min(lo + _BLOCK, total), dtype=np.int64)
        for lo in range(0, total, _BLOCK)
    ]


def exact_posterior(corpus, hp, budget=ENUMERATION_BUDGET, workers=1):
    """Enumerate all assignments; see :class:`ExactPosterior`.

    Results are deterministic for any worker count: block weights are
    computed independently and combined in block index order.
    """
    total = _assignment_total(corpus, hp, budget)
    n = corpus.total_records
    k = hp.entity_count
    field_one_hot = _one_hot_fields(corpus)
    blocks = _id_blocks(total)

    def weigh(ids):
        return _block_log_weights(ids, corpus, hp, field_one_hot)

    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(weigh, blocks))
    else:
        parts = [weigh(ids) for ids in blocks]
    logw = np.concatenate(parts) if parts else np.zeros(0)

    shift = logw.max()
    log_total = shift + np.log(np.exp(logw - shift).sum())
    log_evidence = float(log_total - n * np.log(k))
    assignment_log_probs = logw - log_total

    cocluster = np.zeros((n, n))
    for ids in blocks:
        labels = _decode(ids, n, k)
        probs = np.exp(assignment_log_probs[ids[0] : ids[-1] + 1])
        same = (labels[:, :, None] == labels[:, None, :]).astype(np.float64)
        cocluster += np.einsum("b,bij->ij", probs, same)
    cocluster = (cocluster + cocluster.T) / 2.0
    np.fill_diagonal(cocluster, 1.0)

    return ExactPosterior(
        log_evidence=log_evidence,
        assignment_log_probs=assignment_log_probs,
        cocluster=cocluster,
    )


def exact_log_evidence(corpus, hp, budget=ENUMERATION_BUDGET, workers=1):
    """log p(x) with attribute distributions marginalized analytically."""
    return exact_posterior(corpus, hp, budget, workers).log_evidence


def exact_cocluster(corpus, hp, budget=ENUMERATION_BUDGET, workers=1):
    """Matrix of P(z_i = z_j | x) over flat record indices."""
    return exact_posterior(corpus, hp, budget, workers).cocluster
