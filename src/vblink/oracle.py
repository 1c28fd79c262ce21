"""Exact posterior quantities by exhaustive enumeration of assignments.

With the per-entity attribute distributions integrated out analytically
(Dirichlet-multinomial conjugacy), the weight of one assignment vector z is

    log w(z) = sum_k sum_f [ log B(alpha_f + c_kf(z)) - log B(alpha_f) ]

where c_kfv(z) counts records assigned to entity k carrying value v in
field f and B is the multivariate beta function.  This is the first term
of the engine's telescoped ELBO evaluated at hard counts, and it uses the
engine's ln B.  The counts of a block of assignments come from one
``bincount`` over (assignment, entity, value) keys, and the blocks run
through the engine's block map.  The evidence is then
log p(x) = -N*log(K) + log sum_z w(z), a sum over all K**N assignment
vectors taken with the largest log w(z) shifted out so it cannot overflow.
This is a test fixture for the variational engine, not a scalable
inference path: instances beyond the enumeration budget are refused, never
approximated.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from vblink.engine import _check_compatible, _log_beta, _map_blocks

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


def _block_log_weights(corpus, hp, ids):
    """log w(z) for the assignments ``ids``.  The counts c_kfv(z) of the
    whole block come from one bincount: the fields' values sit side by
    side in sum_f V_f columns, and (assignment b, entity z, column c) has
    the key (b * K + z) * sum_f V_f + c."""
    k = hp.entity_count
    offsets = np.cumsum([0, *corpus.schema.cardinalities])
    width = offsets[-1]
    entity = np.arange(ids.size)[:, None] * k + _decode(ids, corpus.total_records, k)
    keys = entity[:, :, None] * width + (corpus.values + offsets[:-1])
    counts = np.bincount(keys.ravel(), minlength=ids.size * k * width)
    counts = counts.reshape(ids.size, k, width)
    logw = np.zeros(ids.size)
    for a_f, lo, hi in zip(hp.alpha, offsets[:-1], offsets[1:]):
        logw += (_log_beta(a_f + counts[:, :, lo:hi]) - _log_beta(a_f)).sum(axis=1)
    return logw


def exact_posterior(corpus, hp, budget=ENUMERATION_BUDGET, workers=1):
    """Enumerate all assignments; see :class:`ExactPosterior`.

    Results are deterministic for any worker count: block weights are
    computed independently and combined in block index order.
    """
    _check_compatible(corpus, hp)
    total = _assignment_total(corpus, hp, budget)
    n = corpus.total_records
    k = hp.entity_count
    blocks = [np.arange(lo, min(lo + _BLOCK, total)) for lo in range(0, total, _BLOCK)]
    weigh = partial(_block_log_weights, corpus, hp)
    logw = np.concatenate(list(_map_blocks(weigh, blocks, workers)))

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
