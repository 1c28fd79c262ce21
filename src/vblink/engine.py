"""Mean-field coordinate ascent for the latent-entity model.

The variational family is fully factorized: one categorical factor per
record over the K entities and one Dirichlet factor per entity and field,
all in one (sum V_f, K) table ``lam``: value v of field f is row
offset_f + v (offset_f = V_0 + ... + V_{f-1}), entity k is column k.  The
responsibilities of a record depend on it only through its value tuple,
so records that carry the same tuple share one row of ``phi``: ``phi`` is
(U, K) over the U distinct tuples, ``rows`` maps each of the N records to
its row, and row ``u`` stands for ``m[u]`` records.  The prior ``alpha``
of :class:`HyperParams` is one (sum V_f,) vector in the same rows.  A
sweep (:func:`_sweep`) is the three closed-form equations

    phi[u, k] = exp( (X @ T)[u, k] - lse[u] ),
    T = psi(lam) - psi(field sums of lam)
    lam[j, k] <- alpha[j] + counts[j, k],  counts = X^T diag(m) phi
    ELBO = sum ln B(lam) - K * sum_f ln B(alpha_f) - <counts, T>
           + sum_u m[u] lse[u] - N log K

where X (U, sum V_f) is the one-hot indicator of each row's F values
(:func:`_one_hot`), lse[u] the log-normaliser of row u's scores and
N = sum_u m[u].  The ELBO is in closed form after the lam update: the
likelihood, prior and q(beta) terms telescope, and the entropy term
sum_u m[u] sum_k phi[u, k] log phi[u, k] is <counts, T> - sum_u m[u] lse[u].
It includes -N log K from the uniform assignment prior, so it is a true
lower bound on the log evidence.  ``psi`` is ``scipy.special.digamma``;
the field sums come from one ``np.add.reduceat``.  ``scipy.special``,
``scipy.sparse`` and ``concurrent.futures`` are imported inside the
functions that call them, so importing the package, ``vblink synth`` and
``vblink eval`` load none of them.

Most entities of a wide-K fit end up empty: their column of lam is alpha
exactly, so their columns of T, phi and the counts are all the same.
When a sweep starts with a set E of two or more empty entities
(:func:`_entity_columns`), the first stands for all of them as one
shared column s, and the three equations run on the K_c = K - |E| + 1
columns of the occupied entities and s, with S = X @ T:

    lse[u] = top[u] + log( sum_c exp(S[u, c] - top[u])
                           + (|E| - 1) exp(S[u, s] - top[u]) )
    lam[:, k] <- alpha + counts[:, s]  for every k in E
    ELBO: sum ln B(lam) and <counts, T> add |E| - 1 more copies of
          column s's terms to their sums over the K_c columns

and each row's argmax, the first maximum, maps back to the lowest entity
of its column, as the first maximum over all K would.  Membership is
read off lam alone, so a fit resumed from a lam repeats the sweeps of
the fit it came from bit for bit.  With fewer than two empty entities
K_c = K and the sweep's arithmetic is the dense one.  This is the
entity-side counterpart of the distinct-tuple rows, and of the memoized
treatment of unused components in Hughes & Sudderth 2013.

A sweep is one blocked pass (:func:`_pass`) over the U rows, so per-sweep
cost scales with U and K_c, not N and K.  Each block's scores X @ T are
normalised in place, its argmax and MAP responsibility 1 / row sum are
kept, and its counts are taken before the next block is made; then the
block is dropped.  A fit never holds the (U, K) phi.  During a pass it
holds three kinds of (sum V_f, K_c) table: T, formed in the buffer of
the lam it scores, the counts, and one partial counts table per worker,
beside one block per worker and two (U,) MAP arrays (:class:`FitState`),
the memoized form of coordinate ascent that keeps summary statistics and
no per-item local parameters.  The new lam is expanded to (sum V_f, K).
:func:`last_phi` rebuilds a fit's last phi in the same blocks from the
last T.
The tests hold the sweep to an independent reference, the general
updates for any (phi, lam) with phi held, in ``tests/reference.py``.  The
exact oracle (:mod:`vblink.oracle`) shares the one-hot indicator, the
field sums and ln B.

A block holds at most ``BLOCK_RECORDS`` rows and at most 2**20
responsibilities (8 MiB).  The cap bounds the memory of a worker's
block; it does not keep a block in cache, since at wide K an 8 MiB block
is larger than a core's L2 cache.
Determinism contract: the blocks are fixed by the row count U and the
table width K_c, both functions of the corpus and lam; their partial
results are added in block index order, and the ELBO's dot products are
``np.einsum`` loops, not BLAS calls, which OpenBLAS splits across its
threads, so results are bit-identical for a given seed, any worker count
and any BLAS thread count.  :func:`fit` runs a
pass's blocks in rounds of ``workers``, the calling thread taking the
first block of each round and ``workers - 1`` pool threads the rest; one
worker starts no thread, and :func:`last_phi` runs on the calling thread.
Within a pass T is read-only and blocks write disjoint rows of the MAP
arrays.
"""

import contextvars
import math
import time
from dataclasses import dataclass, field

import numpy as np

# Fixed record-block size; part of the determinism contract above.
BLOCK_RECORDS = 8192

STATE_FORMAT_VERSION = 4

# An ELBO fall larger than this share of |ELBO| is beyond roundoff and is
# counted in FitReport.elbo_decreases.
DECREASE_SLACK = 1e-9


class NumericalFailureError(RuntimeError):
    """The ELBO became non-finite during a fit sweep."""

    def __init__(self, sweep, message):
        super().__init__(f"sweep {sweep}: {message}")
        self.sweep = sweep


@dataclass(eq=False)
class HyperParams:
    """Number of latent entities K plus the Dirichlet concentrations
    ``alpha``, one (sum V_f,) vector in the rows of lam: value v of field f
    is entry offset_f + v.  A per-field list of vectors is refused, never
    reshaped; ``np.concatenate`` stacks one."""

    entity_count: int
    alpha: np.ndarray

    def __post_init__(self):
        try:
            k = int(self.entity_count)
        except (OverflowError, ValueError):  # inf, -inf and NaN
            k = 0
        if k != self.entity_count or k < 1:
            raise ValueError(
                f"entity_count must be an integer >= 1, not {self.entity_count!r}"
            )
        if k > np.iinfo(np.intp).max:  # numpy cannot index or count that many
            raise ValueError(
                f"entity_count must be at most {np.iinfo(np.intp).max}, not {k}"
            )
        self.entity_count = k
        a = self.alpha = np.ascontiguousarray(self.alpha, dtype=np.float64)
        if a.ndim != 1 or not np.all(np.isfinite(a) & (a > 0.0)):
            raise ValueError("alpha must be one 1-D, finite, strictly positive vector")

    @classmethod
    def symmetric(cls, entity_count, alpha, cardinalities):
        """One scalar concentration for every field and value."""
        return cls(entity_count, np.full(sum(cardinalities), float(alpha)))


@dataclass(eq=False)
class FitState:
    """What :func:`fit` keeps: the Dirichlet parameters ``lam``
    (sum V_f, K) after the last sweep, ``table``, the score table T
    (sum V_f, K_c) that the last sweep's phi was normalised from, the (K,)
    index ``cols`` from each entity to its column of ``table``, the (N,)
    index ``rows`` from each record to its distinct value tuple, and per
    tuple the last sweep's MAP: ``argmax`` (U,), the entity of its largest
    responsibility (the first maximum, 0-based), and ``max_prob`` (U,),
    that responsibility.  ``table`` has one column per occupied entity
    and, when two or more entities were empty (lam exactly alpha) at the
    sweep's start, one column they all share, so K_c <= K; otherwise
    K_c = K and ``cols`` is 0..K-1 (see :func:`_entity_columns`).  There
    is no phi; :func:`last_phi` rebuilds it from ``table`` and ``cols``.
    A sweep forms its T in the buffer of the lam it starts from, so no lam
    but the last is kept."""

    lam: np.ndarray
    table: np.ndarray
    rows: np.ndarray
    argmax: np.ndarray
    max_prob: np.ndarray
    cols: np.ndarray = None

    @property
    def entity_count(self):
        return int(self.lam.shape[1])


@dataclass
class FitReport:
    """Per-sweep ELBO trace plus convergence status, appended to by
    :func:`fit` as each sweep ends; ``sweeps_run`` is the trace's length."""

    elbo_trace: list = field(default_factory=list)
    converged: bool = False
    distinct_records: int = 0  # U, the distinct value tuples the sweeps ran on
    elbo_decreases: int = 0  # sweeps whose ELBO fell beyond DECREASE_SLACK
    sweep_seconds: list = field(default_factory=list)  # wall time of each sweep

    @property
    def sweeps_run(self):
        return len(self.elbo_trace)


def _rows_per_block(entity_count):
    """Rows per block: at most ``BLOCK_RECORDS``, and at most 2**20
    responsibilities (8 MiB of float64), which bounds a block's memory."""
    return min(BLOCK_RECORDS, max(1, 2**20 // entity_count))


def _blocks(row_count, entity_count):
    step = _rows_per_block(entity_count)
    return [(lo, min(lo + step, row_count)) for lo in range(0, row_count, step)]


def _distinct_rows(corpus):
    """The tuple view of a corpus, from one sort of its rows viewed as
    opaque byte strings, so no combined key can overflow: the (N,) index
    ``rows`` from each record to its distinct value tuple, numbered in
    byte order, and per tuple its stacked columns (U, F) (see
    :func:`_columns`), read off its first record, and its multiplicity
    (U,) as float64."""
    values = corpus.values  # C-contiguous int32, as Corpus keeps it
    n, field_count = values.shape
    if field_count == 0:  # a 0-byte void cannot be sorted: one empty tuple
        rows = np.zeros(n, dtype=np.intp)
        first, counts = rows[:1], np.full(min(n, 1), n)
    else:
        as_bytes = values.view(np.dtype((np.void, values.dtype.itemsize * field_count)))
        _, first, rows, counts = np.unique(
            as_bytes.ravel(), return_index=True, return_inverse=True, return_counts=True
        )
    columns = _columns(values[first], corpus.schema.cardinalities)
    return rows, columns, counts.astype(np.float64)


def _starts(cardinalities):
    """Each field's first row of lam, offset_f = V_0 + ... + V_{f-1}."""
    cards = np.asarray(cardinalities, dtype=np.intp)
    return np.cumsum(cards) - cards


def _columns(values, cardinalities):
    """Each row's column of each field in the stacked (sum V_f) value axis:
    value v of field f is column offset_f + v.  The columns keep the codes'
    integer type (int32 in a corpus), so they take no more memory than the
    codes; sum V_f cannot overflow it while the (sum V_f, K) table T fits
    in memory."""
    return values + _starts(cardinalities).astype(values.dtype)


def _field_sums(table, cardinalities):
    """(F, ...): the sums over each field's rows of a (sum V_f, ...) table."""
    return np.add.reduceat(table, _starts(cardinalities), axis=0)


def _one_hot(columns, width):
    """The sparse (rows, width) indicator X of a block of rows with stacked
    columns ``columns`` (rows, F): row u holds 1s at ``columns[u]``, in field order."""
    from scipy.sparse import csr_array

    rows, fields = columns.shape
    indptr = fields * np.arange(rows + 1)
    data = np.ones(columns.size)
    return csr_array((data, columns.ravel(), indptr), shape=(rows, width))


def _pass(columns, weights, width, entity_count, step, workers=1):
    """One blocked pass over the U rows of stacked columns ``columns``
    (U, F), see :func:`_columns`, with multiplicities ``weights`` (U,).
    Each block's bounds ``lo, hi`` and its one-hot indicator X (entries 1,
    built once) go to ``step(lo, hi, X)``, which returns a number and the
    block's (hi - lo, K) responsibilities p.  Before the next block is
    made X's entries become the block's multiplicities m and its weighted
    counts X^T diag(m) p are taken; then the block's p and X are dropped.
    Returns the summed number and the (width, K) table ``counts[j, k]`` =
    sum over rows with a value in column j of ``weights[u] * p[u, k]``.

    The blocks run in rounds of ``workers``: the calling thread runs the
    first block of a round and at most ``workers - 1`` pool threads run
    the rest, so at most ``workers`` blocks and partials are alive at once.
    The partials are added strictly in block order, the serial fold, so the
    results are bit-identical for any ``workers``; one worker submits
    nothing, and the pool then starts no thread."""
    from concurrent.futures import ThreadPoolExecutor

    fields = columns.shape[1]

    def block(bounds):
        lo, hi = bounds
        x = _one_hot(columns[lo:hi], width)
        number, p = step(lo, hi, x)
        x.data = np.repeat(weights[lo:hi], fields)
        return number, x.T @ p

    total = 0.0
    counts = np.zeros((width, entity_count))
    blocks = _blocks(columns.shape[0], entity_count)
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        for first in range(0, len(blocks), workers):
            # each pool block runs in a copy of the caller's context, so
            # numpy's error state (np.errstate) holds in every block
            rest = [
                pool.submit(contextvars.copy_context().run, block, b)
                for b in blocks[first + 1 : first + workers]
            ]
            for number, part in [block(blocks[first]), *(f.result() for f in rest)]:
                total += number
                counts += part
            # a partial kept alive into the next round raised link4k's
            # peak RSS by 4.9 MB at one worker
            del rest, part
    return total, counts


def _anchor_weights(n, seed):
    return np.random.default_rng(seed).uniform(0.05, 0.3, size=n)


def _seeded_lambda(corpus, hp, seed):
    """The lam of the seeded soft-anchored start, with no N x K array.

    Record ``n`` leans on entity ``n mod K`` with a random weight ``w_n``
    drawn from U(0.05, 0.3); the rest of its mass is uniform over all K
    entities.  Randomized symmetry breaking is mandatory — exactly uniform
    phi makes every entity identical and is a fixed point of both updates
    — but it must be anchored and soft: unanchored jitter lets a few early
    entities absorb records of many distinct individuals (merges that
    coordinate ascent can never split), while hard per-record anchors
    freeze out the slightly-corrupted records (their one mismatched field
    is too expensive to move under a small concentration until clusters
    carry some mass).  The random weights also decide, for near-duplicate
    records anchored to different entities, which anchor the merged
    cluster keeps.

    The start is the lam update of that phi, in closed form:

        counts[j, k] = sum_{x_n has value j} (1 - w_n) / K
                     + sum_{x_n has value j, n mod K = k} w_n

    from one bincount over the records' stacked columns and one over their
    (column, anchor) pairs, at O(N * F + K * sum V_f) cost.
    """
    n, k = corpus.total_records, hp.entity_count
    cards = corpus.schema.cardinalities
    w = _anchor_weights(n, seed)
    columns = _columns(corpus.values, cards)
    share = np.repeat((1.0 - w) / k, len(cards))
    spread = np.bincount(columns.ravel(), share, sum(cards))
    pairs = columns * np.intp(k) + (np.arange(n) % k)[:, None]
    peak = np.bincount(pairs.ravel(), np.repeat(w, len(cards)), sum(cards) * k)
    return (hp.alpha + spread)[:, None] + peak.reshape(-1, k)


def _check_compatible(corpus, hp):
    """alpha has sum V_f entries, and a (sum V_f, K) table fits np.intp."""
    width, k = sum(corpus.schema.cardinalities), hp.entity_count
    if hp.alpha.shape != (width,):
        raise ValueError(f"alpha has {hp.alpha.size} entries, not sum V_f = {width}")
    if width * k > np.iinfo(np.intp).max:
        raise ValueError(
            f"K = {k} and sum V_f = {width}: a (sum V_f, K) table of "
            f"{width * k} entries is beyond np.intp ({np.iinfo(np.intp).max})"
        )


def _score_tables(lam, cardinalities, out=None):
    """The score table T = psi(lam) - psi(field sums of lam), written into
    ``out`` when one is given; ``out=lam`` forms T in lam's own buffer."""
    from scipy.special import digamma

    field_psi = digamma(_field_sums(lam, cardinalities))
    table = digamma(lam, out=out)
    for start, v_f, psi_f in zip(_starts(cardinalities), cardinalities, field_psi):
        table[start : start + v_f] -= psi_f
    return table


def _log_beta(a, cardinalities):
    """Sum of ln B(.) over the fields and columns of a (sum V_f, ...) table."""
    from scipy.special import gammaln

    return float(gammaln(a).sum() - gammaln(_field_sums(a, cardinalities)).sum())


def _normalise_block(scores, out, shared=0, copies=0):
    """Responsibilities of one block of rows from its scores X @ T
    (rows, K), the product of its one-hot indicator (see :func:`_one_hot`)
    and the stacked table T, written into ``out`` (``scores`` itself, or
    the block's rows of a phi); ``scores`` is overwritten.  Each row is
    shifted by its max, the score at its argmax, so large field counts
    cannot overflow the exp, and divided by its sum, in which column
    ``shared`` counts ``copies`` more times (see :func:`_entity_columns`).
    Returns each row's argmax (the first maximum), its sum, whose
    reciprocal is the responsibility at the argmax bit for bit
    (exp(0) = 1), and its log normaliser, the max plus the log of the sum."""
    top_at = scores.argmax(axis=1)
    top = scores.ravel()[top_at + scores.shape[1] * np.arange(len(top_at))]
    scores -= top[:, None]
    np.exp(scores, out=scores)
    total = scores.sum(axis=1)
    if copies:
        total += copies * scores[:, shared]
    np.divide(scores, total[:, None], out=out)
    return top_at, total, top + np.log(total)


def _entity_columns(lam, alpha):
    """The (K,) index ``cols`` from each entity to its column of a sweep's
    score table, and the entities ``kept`` (K_c,), ascending, that own
    those columns.  An empty entity's column of lam is alpha exactly, so
    all empty entities have the same scores, responsibilities and counts;
    when there are two or more, the first stands for them all as one
    shared column and the rest map to it.  Otherwise ``cols`` and ``kept``
    are 0..K-1.  Both are functions of lam alone."""
    width, k = lam.shape
    empty = np.ones(k, dtype=bool)
    # a few rows at a time: a (sum V_f, K) compare raised link4k's peak RSS
    step = max(1, 2**12 // k)
    for lo in range(0, width, step):
        empty &= (lam[lo : lo + step] == alpha[lo : lo + step, None]).all(axis=0)
        if np.count_nonzero(empty) < 2:
            break
    empty = np.flatnonzero(empty)
    if empty.size < 2:
        cols = np.arange(k)
        return cols, cols
    kept = np.ones(k, dtype=bool)
    kept[empty[1:]] = False
    cols = np.cumsum(kept) - 1
    cols[empty] = cols[empty[0]]
    return cols, np.flatnonzero(kept)


def _shared_column(cols, width):
    """The column of a (sum V_f, ``width``) score table that several
    entities share (see :func:`_entity_columns`) and how many entities
    beyond one it stands for: ``(0, 0)`` when each column is one entity's."""
    copies = cols.size - width
    return (int(np.bincount(cols).argmax()) if copies else 0), copies


def _sweep(state, columns, weights, alpha, cardinalities, workers):
    """One fit sweep on a :class:`FitState` (stacked columns ``columns``
    (U, F) and multiplicities ``weights`` (U,) of its distinct tuples,
    stacked prior ``alpha``): the phi update, the lam update and the ELBO,
    from one blocked pass on ``workers`` threads.  Returns the ELBO.

    The previous sweep's ``state.table`` is dropped first.  The entities
    are mapped to the columns of the sweep's table (:func:`_entity_columns`):
    with two or more empty entities, lam keeps the K_c columns of the
    occupied entities and of one shared empty column, which stands for
    ``copies`` = K - K_c more entities.  T is formed in the buffer of that
    lam, which nothing reads again, and becomes ``state.table``, beside
    the index ``state.cols``.  Each block's scores X @ T (its rows, K_c)
    are normalised in place into its responsibilities, the shared column
    counted 1 + ``copies`` times in each row sum; their argmax, mapped
    back to the lowest entity of its column, and MAP responsibility go
    into ``state.argmax`` and ``state.max_prob``; the block returns its
    weighted log-normaliser sum and, before the next block is made, its
    counts, and then nothing of it is kept.  The counts, plus alpha in
    place, expanded to the K entities through ``state.cols``, become
    ``state.lam``.  With lam = alpha + counts the likelihood, prior and
    q(beta) terms telescope:

        ELBO = sum ln Gamma(lam) - sum ln Gamma(field sums of lam)
               - K * sum_f ln B(alpha_f)
               - (<counts, T> - sum_u m[u] lse[u]) - N log K

    where T is ``state.table`` expanded to K columns: the sums over the
    K_c columns add the shared column's ln B and <counts, T> terms
    ``copies`` more times.  Since log phi[u, k] = (X @ T)[u, k] - lse[u],
    the bracket is the weighted sum of phi log phi, so the entropy needs
    no second read of phi and the ELBO costs O(K_c * sum V_f + U).
    """
    state.table = None  # the previous sweep's T: not alive during the pass
    k = state.entity_count
    state.cols, kept = _entity_columns(state.lam, alpha)
    if kept.size < k:  # np.take keeps lam C-ordered, as a[:, kept] would not
        state.lam = np.take(state.lam, kept, axis=1)
    table = state.table = _score_tables(state.lam, cardinalities, out=state.lam)
    shared, copies = _shared_column(state.cols, kept.size)
    # with no shared column, blocks are normalised by the dense call
    extra = (shared, copies) if copies else ()

    def step(lo, hi, x):
        p = x @ table
        top_at, total, lse = _normalise_block(p, p, *extra)
        # mode="clip" writes into argmax unbuffered; top_at is in range
        np.take(kept, top_at, out=state.argmax[lo:hi], mode="clip")
        np.divide(1.0, total, out=state.max_prob[lo:hi])
        return np.einsum("i,i->", lse, weights[lo:hi]), p

    log_normaliser, counts = _pass(
        columns, weights, table.shape[0], kept.size, step, workers
    )
    bracket = float(np.einsum("ij,ij->", counts, table)) - float(log_normaliser)
    if copies:
        column = np.einsum("i,i->", counts[:, shared], table[:, shared])
        bracket += copies * float(column)
    counts += alpha[:, None]
    log_b = _log_beta(counts, cardinalities)
    if copies:
        log_b += copies * _log_beta(counts[:, shared : shared + 1], cardinalities)
        counts = np.take(counts, state.cols, axis=1)
    state.lam = counts
    return (
        log_b - k * _log_beta(alpha, cardinalities)
        - bracket
        - float(weights.sum()) * math.log(k)
    )


def _state_stats(state):
    return "; ".join(
        f"{name} range [{a.min() if a.size else 0}, {a.max() if a.size else 0}] "
        f"non-finite {int(a.size - np.isfinite(a).sum())}"
        for name, a in (("max_prob", state.max_prob), ("lam", state.lam))
    )


def fit(
    corpus,
    hp,
    *,
    max_sweeps=1000,
    rel_tol=1e-8,
    seed=0,
    workers=1,
    initial_lam=None,
    on_sweep=None,
):
    """Run coordinate ascent until the relative ELBO change drops below
    ``rel_tol`` or ``max_sweeps`` is reached.

    The distinct value tuples and their multiplicities are found once and
    every sweep runs on them.  Each sweep is one blocked pass that does the
    phi update, the lam update and the ELBO (see :func:`_sweep`).
    No (U, K) phi is ever held: a block's responsibilities live only while
    the block is processed, so the fit holds three kinds of (sum V_f, K_c)
    table, T, the counts and one partial per worker, beside one block per
    worker, O(N) per-record state and the (sum V_f, K) lam; the start lam
    becomes the first T.  K_c is K less all but one of the entities that
    are empty (lam exactly alpha) when the sweep starts, which share one
    column (see :func:`_sweep`).
    The pass runs its blocks on ``workers`` threads (see :func:`_pass`),
    with bit-identical results for any ``workers``.
    ``initial_lam`` (one (sum V_f, K) array in the layout of lam)
    overrides the seeded start (:func:`_seeded_lambda`) and the seed is
    then unused; the caller's array is not written.  lam is the whole
    state of a fit, so a fit started from the lam of sweep S (say, from
    :func:`load_state`, or a copy of it in any memory order) repeats
    sweeps S+1, ... of the fit it came from bit for bit.
    ``on_sweep(sweep, elbo, state)`` is called after every sweep with the
    :class:`FitState`: ``state.lam`` is (sum V_f, K), and ``state.table``
    is the sweep's (sum V_f, K_c) T, whose columns ``state.cols`` (K,)
    gives each entity.  A callback that keeps ``state.lam`` or
    ``state.table`` must copy it: the next sweep writes its T into the
    buffer of ``state.lam`` when it keeps all K columns, and drops
    ``state.table``.
    An alpha that no fit can start from raises :class:`AlphaRangeError`
    before the first sweep (see :func:`_check_alpha_range`).
    Returns ``(FitState, FitReport)``; the trace is nondecreasing up to
    roundoff because each step maximizes the same objective, and the
    report counts the sweeps where it fell by more than ``DECREASE_SLACK``
    relative.
    """
    _check_fit_options(max_sweeps, rel_tol, seed, workers)
    _check_compatible(corpus, hp)
    cards = corpus.schema.cardinalities
    if initial_lam is None:
        lam = _seeded_lambda(corpus, hp, seed)
    else:
        _check_lam(initial_lam, (sum(cards), hp.entity_count))
        lam = np.array(initial_lam, dtype=np.float64, order="C")
    rows, columns, weights = _distinct_rows(corpus)
    state = FitState(
        lam=lam,
        table=None,
        rows=rows,
        argmax=np.zeros(len(weights), dtype=np.intp),
        max_prob=np.zeros(len(weights)),
    )
    del lam  # the first sweep writes T into the start's buffer
    # Checked here, where the first sweep would import scipy.special anyway:
    # importing it before the start's N x F temporaries moved tall48k's
    # peak RSS 74.7 -> 79.7 MiB through glibc's placement of later blocks.
    _check_alpha_range(corpus, hp)
    report = FitReport(distinct_records=len(weights))
    trace = report.elbo_trace
    for sweep in range(1, max_sweeps + 1):
        start = time.perf_counter()
        value = _sweep(state, columns, weights, hp.alpha, cards, workers)
        report.sweep_seconds.append(time.perf_counter() - start)
        if not math.isfinite(value):
            raise NumericalFailureError(
                sweep, f"ELBO is {value}; {_state_stats(state)}"
            )
        if trace and value < trace[-1] - DECREASE_SLACK * abs(trace[-1]):
            report.elbo_decreases += 1
        trace.append(value)
        if on_sweep is not None:
            on_sweep(sweep, value, state)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= rel_tol * abs(trace[-1]):
            report.converged = True
            break
    return state, report


def last_phi(state, corpus):
    """The (U, K) responsibilities of a :class:`FitState`'s last sweep, one
    row per distinct value tuple (``state.rows`` maps each record to its
    row): each of the sweep's blocks normalises its scores X @ T, with T
    the sweep's ``state.table``, its shared column counted as the sweep
    counted it, and no counts are taken; ``state.cols`` expands the
    block's K_c columns to the K entities.  The blocks and operations are
    the sweep's, so they are bit for bit the sweep's, their argmax is
    ``state.argmax`` and their max ``state.max_prob``.  It allocates the
    (U, K) phi that :func:`fit` never holds, so it is for small instances
    and checks."""
    table, cols = state.table, state.cols
    shared, copies = _shared_column(cols, table.shape[1])
    extra = (shared, copies) if copies else ()
    phi = np.empty((len(state.argmax), state.entity_count))
    columns = _distinct_rows(corpus)[1]
    for lo, hi in _blocks(len(phi), table.shape[1]):
        p = _one_hot(columns[lo:hi], table.shape[0]) @ table
        _normalise_block(p, p, *extra)
        np.take(p, cols, axis=1, out=phi[lo:hi])
    return phi


def _check_fit_options(max_sweeps, rel_tol, seed, workers):
    """The checks on :func:`fit`'s options; the command line runs them
    before it reads any input or writes any output."""
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    if seed < 0:  # numpy's own refusal names neither the seed nor its value
        raise ValueError(f"seed must be >= 0, got {seed}")
    if workers < 1:
        raise ValueError("workers must be >= 1")


class AlphaRangeError(ValueError):
    """An alpha that no fit can start from; see :func:`_check_alpha_range`."""


def _check_alpha_range(corpus, hp):
    """Refuse an alpha that no fit can start from: one where psi or ln
    Gamma is not finite at an entry of some field, or at the field's alpha
    sum plus the record count, the most any column of lam sums to over the
    field's rows.  The ELBO of a fit from it is not finite.  Raises
    :class:`AlphaRangeError` naming the first such field."""
    from scipy.special import digamma, gammaln

    n, cards = corpus.total_records, corpus.schema.cardinalities
    with np.errstate(over="ignore"):  # an infinite sum is refused below
        sums = _field_sums(hp.alpha, cards) + n

    def bad(x):
        return ~(np.isfinite(digamma(x)) & np.isfinite(gammaln(x)))

    fields = np.repeat(np.arange(len(cards)), cards)
    unbounded = np.union1d(fields[bad(hp.alpha)], np.flatnonzero(bad(sums)))
    if unbounded.size:
        raise AlphaRangeError(
            f"the alpha of field {corpus.schema.field_names[unbounded[0]]!r} "
            "is out of range: digamma or ln Gamma of one of its entries, or "
            f"of its sum plus the {n} records, is not finite"
        )


def _check_lam(lam, shape):
    """One (sum V_f, K) array of finite, strictly positive entries."""
    got = lam.shape if isinstance(lam, np.ndarray) else type(lam).__name__
    if got != shape:
        raise ValueError(f"lam must be a (sum V_f, K) = {shape} array, not {got}")
    if not np.all(np.isfinite(lam) & (lam > 0.0)):
        raise ValueError("lam must be finite and strictly positive")


def save_state(path, lam, corpus, hp):
    """Checkpoint ``lam`` with the stacked alpha and a header describing
    the problem shape, as an ``.npz`` archive written to ``path`` as given.

    lam is the whole state of a fit: each sweep computes phi from lam, so
    ``fit(corpus, hp, initial_lam=lam)`` on the loaded lam continues the
    fit bit for bit.  The fit's last phi came from the score table of the
    lam before its last lam update (``FitState.table``, see
    :func:`last_phi`); the saved lam gives the next sweep's phi.
    """
    with open(path, "wb") as fh:
        np.savez(
            fh,
            version=np.asarray(STATE_FORMAT_VERSION),
            db_sizes=np.asarray(corpus.db_sizes, dtype=np.int64),
            cardinalities=np.asarray(corpus.schema.cardinalities, dtype=np.int64),
            entity_count=np.asarray(hp.entity_count),
            alpha=hp.alpha,
            lam=lam,
        )


def load_state(path):
    """Read a checkpoint; returns ``(lam, header_dict)``.  The header's
    ``alpha`` is the stacked (sum V_f,) vector that :class:`HyperParams`
    takes.

    Raises ``ValueError`` when an array is missing, the version is not the
    current one, or an array's shape disagrees with the header.
    """
    with np.load(path) as data:

        def read(name):
            if name not in data.files:
                raise ValueError(f"{path}: array {name!r} is missing")
            return data[name]

        version = int(read("version"))
        if version != STATE_FORMAT_VERSION:
            raise ValueError(f"unsupported state format version {version}")
        cards = [int(v) for v in read("cardinalities")]
        header = {
            "version": version,
            "db_sizes": tuple(int(s) for s in read("db_sizes")),
            "cardinalities": cards,
            "entity_count": int(read("entity_count")),
        }
        alpha, lam = read("alpha"), read("lam")
    if alpha.shape != (sum(cards),):
        raise ValueError(f"alpha has shape {alpha.shape}, not ({sum(cards)},)")
    _check_lam(lam, (sum(cards), header["entity_count"]))
    header["alpha"] = alpha
    return lam, header
