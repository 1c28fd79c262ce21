"""Exact posterior quantities by exhaustive enumeration of assignments.

With the per-entity attribute distributions integrated out analytically
(Dirichlet-multinomial conjugacy), the weight of one assignment vector z is

    log w(z) = sum_k sum_f [ log B(alpha_f + c_kf(z)) - log B(alpha_f) ]
             = sum_{k,f,v} [ lnG(alpha_fv + c_kfv(z)) - lnG(alpha_fv) ]
               - sum_k S(N_k(z)),
    S(n) = sum_f [ lnG(A_f + n) - lnG(A_f) ],   A_f = sum_v alpha_fv,

where c_kfv(z) counts records assigned to entity k carrying value v in
field f, B is the multivariate beta function and lnG is ln Gamma.  This is
the first term of the engine's telescoped ELBO evaluated at hard counts.
Every record carries exactly one value per field, so sum_v c_kfv(z) is the
entity size N_k(z), the same for every field, and S needs one table.
Every count is an integer in 0..N, so both terms are exact lookups: one
(sum_f V_f, N+1) table of the first and the (N+1,) table of S, built once
per call.  The counts of a block of assignments come from one ``bincount``
over (assignment, entity, value) keys and the entity sizes from one over
(assignment, entity) keys; the blocks run one after another.
The evidence is then log p(x) = -N*log(K) + log sum_z w(z), a sum over
all K**N assignment vectors taken by ``scipy.special.logsumexp``, so it
cannot overflow.  Each block also sums its co-clustering indicators
weighted by exp(log w(z) - m_b), m_b the block's largest log weight, in
the same pass over its labels; the blocks' sums C_b combine in block
order as sum_b exp(m_b - log sum_z w(z)) * C_b = P(z_i = z_j | x).  This
is a test fixture for the variational engine, not a scalable inference
path: instances beyond the enumeration budget are refused, never
approximated.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import gammaln, logsumexp

from vblink.engine import _check_compatible, _columns, _field_sums

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


def _assignment_total(corpus, hp):
    total = hp.entity_count ** corpus.total_records
    if total > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{hp.entity_count}^{corpus.total_records} = {total} assignments "
            f"exceeds the enumeration budget of {ENUMERATION_BUDGET}"
        )
    return total


def _decode(ids, n, k):
    """Mixed-radix digits of each id: labels[b, i] = (ids[b] // k**i) % k.
    k**n is within the enumeration budget, so the powers fit in int64."""
    return ids[:, None] // k ** np.arange(n) % k


def _lngamma_tables(corpus, hp):
    """The flat table whose entry c * (N+1) + n is lnG(alpha_c + n) -
    lnG(alpha_c), for the sum_f V_f columns c of all fields side by side,
    and the (N+1,) table of S(n)."""
    n = np.arange(corpus.total_records + 1)

    def log_rising(a):
        """lnG(a + n) - lnG(a), one row per entry of a."""
        return gammaln(a[:, None] + n) - gammaln(a)[:, None]

    totals = _field_sums(hp.alpha, corpus.schema.cardinalities)
    return log_rising(hp.alpha).ravel(), log_rising(totals).sum(axis=0)


def _weigh_block(corpus, hp, tables, bounds):
    """For the assignments ``lo..hi-1`` of ``bounds``: their log w(z), its
    maximum m, and the (N, N) co-clustering sum of the block,
    sum_z exp(log w(z) - m) * 1{z_i = z_j}, all from one decode of the
    labels.  The counts c_kfv(z) of the whole block come from one bincount:
    the fields' values sit side by side in sum_f V_f columns, and
    (assignment b, entity z, column c) has the key (b * K + z) * sum_f V_f
    + c.  The sizes N_k(z) come from one bincount over the keys b * K + z."""
    column, size = tables
    ids = np.arange(*bounds)
    n = corpus.total_records
    k = hp.entity_count
    labels = _decode(ids, n, k)
    cards = corpus.schema.cardinalities
    width = hp.alpha.size
    entity = np.arange(ids.size)[:, None] * k + labels
    keys = entity[:, :, None] * width + _columns(corpus.values, cards)
    counts = np.bincount(keys.ravel(), minlength=ids.size * k * width)
    counts = counts.reshape(ids.size, k, width)
    counts += np.arange(width) * (n + 1)
    sizes = np.bincount(entity.ravel(), minlength=ids.size * k)
    terms = column[counts].reshape(ids.size, -1).sum(axis=1)
    logw = terms - size[sizes].reshape(ids.size, k).sum(axis=1)
    top = logw.max()
    weights = np.exp(logw - top)
    same = np.empty((n, n))
    for i in range(n):
        same[i] = weights @ (labels == labels[:, i : i + 1])
    return logw, top, same


def exact_posterior(corpus, hp):
    """Enumerate all assignments; see :class:`ExactPosterior`.

    The blocks are weighed independently, in order, and combined in block
    index order.
    """
    _check_compatible(corpus, hp)
    total = _assignment_total(corpus, hp)
    n = corpus.total_records
    k = hp.entity_count
    blocks = [(lo, min(lo + _BLOCK, total)) for lo in range(0, total, _BLOCK)]
    weigh = partial(_weigh_block, corpus, hp, _lngamma_tables(corpus, hp))
    logw, tops, cocluster = zip(*map(weigh, blocks))
    logw = np.concatenate(logw)
    # The blocks' co-clustering sums are folded, in block order and relative
    # to the largest block maximum, before logsumexp's temporaries are made.
    top = max(tops)
    cocluster = sum(np.exp(m - top) * c for m, c in zip(tops, cocluster))

    log_total = logsumexp(logw)
    log_evidence = float(log_total - n * np.log(k))
    assignment_log_probs = logw - log_total

    cocluster *= np.exp(top - log_total)
    cocluster = (cocluster + cocluster.T) / 2.0
    np.fill_diagonal(cocluster, 1.0)

    return ExactPosterior(
        log_evidence=log_evidence,
        assignment_log_probs=assignment_log_probs,
        cocluster=cocluster,
    )
