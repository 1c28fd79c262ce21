"""Exact posterior quantities by a dynamic program over record subsets.

With the per-entity attribute distributions integrated out analytically
(Dirichlet-multinomial conjugacy), an entity holding the record set S
contributes the factor

    log g(S) = sum_f [ log B(alpha_f + c_f(S)) - log B(alpha_f) ],

where c_fv(S) counts the records of S carrying value v in field f, B is
the multivariate beta function, and g of the empty set is 1.  This is the
first term of the engine's telescoped ELBO evaluated at hard counts.  An
assignment vector z weighs w(z) = prod_k g({i : z_i = k}), which depends on
z only through the partition of the records it induces; a partition into
b blocks comes from K!/(K-b)! assignments.  With P_b(T) the sum of
prod g over the partitions of T into b blocks, the evidence is

    log p(x) = log sum_b K!/(K-b)! * P_b(all records) - N*log(K).

P_0 is 1 at the empty set, P_1 = g off it, and for b >= 2

    P_b(T) = sum_{S subset of T, S holds T's lowest record} g(S) * P_{b-1}(T \\ S),

which names every partition once, by the block of T's lowest record.  The
record set S is one block of the partition with weight g(S) * R(rest),
with R(U) = sum_b K!/(K-b)! * P_{b-1}(U), and summing that over the sets S
holding record 0 gives the normaliser Z of the evidence.  R is a
polynomial in falling factorials, so Horner's rule evaluates it with one
level alive: R = K * F_1, where F_j is 1 at the empty set and, off it,

    F_j(U) = (K - j) * sum_{S subset of U, S holds U's lowest record} g(S) * F_{j+1}(U \\ S),

starting from F_B, 1 at the empty set and 0 elsewhere, B = min(K, N); the
first step gives F_{B-1} = (K - B + 1) * g off the empty set.  For K <= N
the terms this start drops carry K!/(K-b)! = 0, b > K; for K > N they
carry P_N and beyond, which are 0 at every set of fewer than N records,
and R is read only at the complement of a non-empty set.  The share
w(S) = g(S) * R(rest) / Z is the posterior probability that S is a block,
so P(z_i = z_j | x) is the sum of w(S) over the sets S holding i and j.
A superset sum gives every such sum at once: after N in-place passes over
w, pass i adding w at each set holding record i into the same set without
it, w at T is the sum of w(S) over the sets S holding T, and the pair
(i, j) reads it at T = {i, j}.  Each set is only its bitmask.  Each
step of Horner's rule after the first takes (3^N - 1)/2 pair terms; all
sums are taken in log space with a max shift, so none can overflow.  The
pairs are held in order as two unsigned ids of 2 bytes each (N <= 16),
4 bytes per pair, and each step is evaluated one fixed chunk of pairs at
a time.  This is a test fixture for the variational engine, not a
scalable inference path: instances beyond the enumeration budget are
refused, never approximated.
"""

from dataclasses import dataclass

import numpy as np

from vblink.engine import (
    _check_alpha_range,
    _check_compatible,
    _columns,
    _field_sums,
    _log_beta,
    _one_hot,
)

ENUMERATION_BUDGET = 10**6

# Record subsets per chunk of the (sum V_f, subsets) tables of log g.  A
# power of two, so the 2^N subsets fill whole chunks and no chunk is one
# column wide, whose sums numpy would take pairwise instead of in row order.
SUBSET_CHUNK = 1 << 14

# Pairs (T, S) per step of the pair program: a power of two, so its float64
# terms and their temporaries take a fixed 256 KB each.
PAIR_CHUNK = 1 << 15


class EnumerationBudgetError(ValueError):
    """The subset dynamic program's term count exceeds the enumeration budget."""


@dataclass(eq=False)
class ExactPosterior:
    """Exact evidence and pairwise co-clustering.

    ``cocluster[i, j]`` is P(z_i = z_j | x) over flat record indices.
    """

    log_evidence: float
    cocluster: np.ndarray


def _check_budget(n, k):
    """Refuse N records at K entities when the program's terms, (3^N - 1)/2
    pairs if it has levels 2 .. B-1 and 2^N set weights if not, exceed the
    budget."""
    pairs = min(k, n) > 2
    if ((3**n - 1) // 2 if pairs else 2**n) > ENUMERATION_BUDGET:
        size = f"(3^{n} - 1)/2" if pairs else f"2^{n}"
        raise EnumerationBudgetError(
            f"{n} records at K = {k} need {size} subset terms, more than "
            f"the enumeration budget of {ENUMERATION_BUDGET}"
        )


def _set_weights(corpus, hp):
    """log g(S) for every record subset S (bit i of S is record i),
    ``SUBSET_CHUNK`` subsets at a time: each chunk forms its subsets' bits,
    uses them and drops them, and each subset's sums run over the same
    rows in the same order whatever the chunk."""
    from scipy.special import gammaln

    n = corpus.total_records
    cards = corpus.schema.cardinalities
    xt = _one_hot(_columns(corpus.values, cards), hp.alpha.size).T
    logg = np.empty(2**n)
    for lo in range(0, 2**n, SUBSET_CHUNK):
        bits = np.arange(lo, min(lo + SUBSET_CHUNK, 2**n))[:, None] >> np.arange(n) & 1
        lam = hp.alpha[:, None] + xt @ bits.T
        logg[lo : lo + len(bits)] = (
            gammaln(lam).sum(axis=0) - gammaln(_field_sums(lam, cards)).sum(axis=0)
        )
    return logg - _log_beta(hp.alpha, cards)


def _pairs(n):
    """The (3^N - 1)/2 pairs (T, S) of non-empty record sets T and subsets
    S of T holding T's lowest record, as ``t`` and ``s`` in the smallest
    unsigned dtype that holds 2^N - 1, and each T's group size
    2^(|T| - 1) for T = 1 .. 2^N - 1.  The pairs run by T, and within T
    by S.  The sets T with highest record h are {h} and T' + {h} for each
    T' below it, whose group is T''s group followed by it with h added, so
    each h doubles the groups already written, ``PAIR_CHUNK`` pairs at a
    time."""
    dtype = np.min_scalar_type(2**n - 1)
    count = np.zeros(1, dtype=np.int32)
    for _ in range(n):
        count = np.r_[count, count + 1]  # popcount of 0 .. 2^N - 1
    sizes = np.left_shift(1, count[1:] - 1)
    starts = np.cumsum(sizes) - sizes
    t = np.repeat(np.arange(1, 2**n, dtype=dtype), sizes)
    s = np.empty_like(t)
    for h in range(n):
        done = (3**h - 1) // 2  # the pairs of every T below 2^h
        s[done] = 1 << h
        for lo in range(0, done, PAIR_CHUNK):
            hi = min(lo + PAIR_CHUNK, done)
            group = t[lo:hi] - 1
            # T''s group of m pairs at p is copied to 2p and 2p + m past ({h}, {h}).
            at = starts[group] + np.arange(done + 1 + lo, done + 1 + hi)
            s[at] = s[lo:hi]
            at += sizes[group]
            s[at] = s[lo:hi] | (1 << h)
    return t, s, sizes


def _next_level(level, logg, t, s, sizes):
    """log P_b over every subset from log P_{b-1}, as log F_j - log(K - j)
    off the empty set from log F_{j+1}: each set T's pair terms are one
    group of ``t``, summed by a log-sum-exp shifted by its max.
    The groups are taken whole, as many as fit in ``PAIR_CHUNK`` pairs and
    at least one, so each group reduces the same terms in the same order
    whatever the chunk."""
    out = np.empty_like(level)
    out[0] = -np.inf
    ends = np.cumsum(sizes)
    first = 0
    while first < len(sizes):
        done = ends[first] - sizes[first]
        last = max(np.searchsorted(ends, done + PAIR_CHUNK, side="right"), first + 1)
        tc, sc = t[done : ends[last - 1]], s[done : ends[last - 1]]
        terms = logg[sc]
        terms += level[tc ^ sc]
        heads = ends[first:last] - sizes[first:last] - done
        top = np.maximum.reduceat(terms, heads)
        top[np.isneginf(top)] = 0.0  # every term -inf: T has fewer than b records
        terms -= np.repeat(top, sizes[first:last])
        np.exp(terms, out=terms)
        with np.errstate(divide="ignore"):
            out[1 + first : 1 + last] = top + np.log(np.add.reduceat(terms, heads))
        first = last
    return out


def exact_posterior(corpus, hp):
    """Sum over the set partitions of the records; see :class:`ExactPosterior`.
    An alpha that no fit can start from raises
    :class:`vblink.engine.AlphaRangeError`, as :func:`vblink.engine.fit` does."""
    from scipy.special import logsumexp

    _check_compatible(corpus, hp)
    n, k = corpus.total_records, hp.entity_count
    _check_budget(n, k)
    _check_alpha_range(corpus, hp)
    if n == 0:
        return ExactPosterior(log_evidence=0.0, cocluster=np.zeros((0, 0)))
    logg = _set_weights(corpus, hp)
    depth = min(k, n)
    rest = np.r_[0.0, np.full(2**n - 1, -np.inf)]  # log F_B, B = depth
    program = _pairs(n) if depth > 2 else ()
    for j in range(depth - 1, 0, -1):
        rest = _next_level(rest, logg, *program) if j < depth - 1 else logg.copy()
        rest += np.log(k - j)
        rest[0] = 0.0
    rest += np.log(k)
    del program  # the pair program lives only while R is built
    # Row 2^N - 1 - S of ``rest`` is R at the complement of S; w(S) is
    # formed in log g's own buffer.
    w = logg
    w += rest[::-1]
    log_total = logsumexp(w[1::2])
    w -= log_total
    np.exp(w, out=w)
    for i in range(n):  # superset sums: w[T] becomes the sum of w(S) over S holding T
        w.reshape(-1, 2, 1 << i)[:, 0] += w.reshape(-1, 2, 1 << i)[:, 1]
    bit = 1 << np.arange(n)
    cocluster = w[bit[:, None] | bit]
    np.fill_diagonal(cocluster, 1.0)
    return ExactPosterior(
        log_evidence=float(log_total - n * np.log(k)), cocluster=cocluster
    )
