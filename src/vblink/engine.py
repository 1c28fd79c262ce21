"""Mean-field coordinate ascent for the latent-entity model.

The variational family is fully factorized: one categorical factor per
record over the K entities and one Dirichlet factor per entity and field
(parameters ``lam``, a list of (K, V_f) arrays).  The responsibilities of a
record depend on it only through its value tuple, so records that carry
the same tuple share one row of ``phi``: ``phi`` is (U, K) over the U
distinct tuples, ``rows`` maps each of the N records to its row, and row
``u`` stands for ``m[u]`` records.  A sweep applies the two closed-form
updates

    lam[k, f, v] <- alpha[f, v] + sum_u m[u] * phi[u, k] * 1{x[u, f] == v}
    phi[u, k]    propto exp( sum_f  psi(lam[k, f, x[u, f]])
                                  - psi(sum_v lam[k, f, v]) )

and evaluates the evidence lower bound (ELBO) once per sweep, with the
assignment entropy weighted the same way,
- sum_u m[u] sum_k phi[u, k] log phi[u, k].
The bound includes the constant -N*log(K), N = sum_u m[u], from the uniform
assignment prior, so it is a true lower bound on the log evidence of the
data.  ``psi`` is ``scipy.special.digamma``.  A state with one row per
record (``rows`` = 0..N-1, every ``m[u]`` = 1) is the per-record form of the
same updates; :func:`fit` finds the distinct tuples once and runs every
sweep on them, so per-sweep cost scales with U, not N.

A fit sweep is one blocked pass over phi (:func:`_sweep`).  The digamma
tables T_f over ``lam`` are built once per sweep (O(K * sum V_f)), so
scoring reduces to O(U * K * F) table lookups.  Each block of phi rows is
scored and normalized in place (max shift, exp, divide by the row sum),
keeps its weighted log-normaliser sum sum_u m[u] lse[u] (lse[u] = row max
+ log row sum), and adds its weighted field counts while it is still in
cache.  The lam update is then lam = alpha + counts, and the ELBO
telescopes to a closed form in lam, the counts, T_f and the
log-normalisers: since log phi[u, k] = sum_f T_f[x[u, f], k] - lse[u],
sum_u m[u] sum_k phi[u, k] log phi[u, k] = sum_f <counts_f, T_f>
- sum_u m[u] lse[u].  So a sweep reads phi once and its ELBO costs
O(K * sum V_f + U).  The public
:func:`update_phi`, :func:`update_lambda` and :func:`elbo` are the general
updates for any (phi, lam); they share the block normalisation, the
lam = alpha + counts step, the score tables and ln B with the sweep, and
the tests hold the sweep to them.  The reference :func:`elbo` is in
bracket form: its bracket alpha + counts - lam vanishes at
lam = alpha + counts, which leaves the sweep's closed form.  The
enumeration oracle (:mod:`vblink.oracle`) weighs each
hard assignment by the ln B terms at its counts, with the same ln B and
the same block map.

A block holds at most ``BLOCK_RECORDS`` rows and at most 2**20 entries of
phi (8 MiB), so wide-K blocks still fit in cache.  Determinism contract:
the blocks are fixed by the row count and K, and per-block partial results
are added in block index order, so results are bit-identical for a given
seed regardless of the worker count.  Workers take the blocks in rounds of
``workers``, so at most that many partial results are alive at once.
Within a pass ``lam`` is read-only and blocks write disjoint rows of phi.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, gammaln, polygamma

# Fixed record-block size; part of the determinism contract above.
BLOCK_RECORDS = 8192

STATE_FORMAT_VERSION = 3

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
    """Number of latent entities plus per-field Dirichlet concentrations."""

    entity_count: int
    alpha: list  # per field, a (V_f,) float array

    def __post_init__(self):
        self.entity_count = int(self.entity_count)
        if self.entity_count < 1:
            raise ValueError("entity_count must be >= 1")
        self.alpha = [np.ascontiguousarray(a, dtype=np.float64) for a in self.alpha]
        for a in self.alpha:
            if a.ndim != 1 or a.size == 0 or not np.all(np.isfinite(a) & (a > 0.0)):
                raise ValueError("alpha vectors must be 1-D, finite and strictly positive")

    @classmethod
    def symmetric(cls, entity_count, alpha, cardinalities):
        """Broadcast one scalar concentration across every field and value."""
        return cls(
            entity_count=entity_count,
            alpha=[np.full(int(v_f), float(alpha)) for v_f in cardinalities],
        )


@dataclass(eq=False)
class VariationalState:
    """Responsibilities ``phi`` (U, K), the (N,) index ``rows`` from each
    record to its row of ``phi``, and Dirichlet parameters ``lam`` (per
    field, (K, V_f)).

    Records that share a row must carry the same value tuple.  Without
    ``rows`` every record has its own row (``rows`` = 0..N-1).
    """

    phi: np.ndarray
    lam: list
    rows: np.ndarray = None

    def __post_init__(self):
        if self.rows is None:
            self.rows = np.arange(self.phi.shape[0])

    @property
    def entity_count(self):
        return int(self.phi.shape[1])

    def copy(self):
        return VariationalState(
            phi=self.phi.copy(),
            lam=[l.copy() for l in self.lam],
            rows=self.rows.copy(),
        )

    def permute_entities(self, perm):
        """Relabel entities: new entity ``i`` is old entity ``perm[i]``."""
        perm = np.asarray(perm)
        return VariationalState(
            phi=np.ascontiguousarray(self.phi[:, perm]),
            lam=[np.ascontiguousarray(l[perm]) for l in self.lam],
            rows=self.rows.copy(),
        )

    def validate(self, atol=1e-12):
        """Check the row index, simplex, finiteness and positivity
        invariants; raise on violation."""
        _check_rows(self.rows, self.phi.shape[0])
        if not np.all(np.isfinite(self.phi) & (self.phi > 0.0)):
            raise ValueError("phi must be finite and strictly positive")
        if self.phi.size:
            err = np.max(np.abs(self.phi.sum(axis=1) - 1.0))
            if err > atol:
                raise ValueError(f"phi rows deviate from the simplex by {err}")
        _check_lam(
            self.lam, self.entity_count, [np.shape(lam_f)[-1] for lam_f in self.lam]
        )


@dataclass
class FitReport:
    """Per-sweep ELBO trace plus convergence status and timing."""

    elbo_trace: list = field(default_factory=list)
    sweeps_run: int = 0
    converged: bool = False
    wall_time: float = 0.0
    distinct_records: int = 0  # U, the rows of phi the sweeps ran on
    elbo_decreases: int = 0  # sweeps whose ELBO fell beyond DECREASE_SLACK


def _rows_per_block(entity_count):
    """Rows of phi per block: at most ``BLOCK_RECORDS``, and at most 2**20
    entries (8 MiB of float64), so a block stays in cache while it is used."""
    return min(BLOCK_RECORDS, max(1, 2**20 // entity_count))


def _blocks(row_count, entity_count):
    step = _rows_per_block(entity_count)
    return [(lo, min(lo + step, row_count)) for lo in range(0, row_count, step)]


def _map_blocks(fn, blocks, workers):
    """Apply fn to each block in the list ``blocks`` and yield the results
    in block order.  Blocks run in rounds of ``workers``, so a caller that
    folds each result as it comes holds at most ``workers`` of them at
    once."""
    if workers <= 1 or len(blocks) <= 1:
        yield from map(fn, blocks)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for lo in range(0, len(blocks), workers):
            yield from pool.map(fn, blocks[lo : lo + workers])


def _fold_blocks(fn, totals, shape, workers):
    """Add each block's list of partial results from fn into ``totals``,
    in place and strictly in block order, so the sums are bit-identical
    for any worker count."""
    for parts in _map_blocks(fn, _blocks(*shape), workers):
        for total, part in zip(totals, parts):
            total += part
    return totals


def _check_rows(rows, row_count):
    if (
        rows.ndim != 1
        or not np.issubdtype(rows.dtype, np.integer)
        or (rows.size and (rows.min() < 0 or rows.max() >= row_count))
    ):
        raise ValueError(f"rows must be a 1-D index into the {row_count} phi rows")


def _row_patterns(state, values):
    """Value tuple ``(U, F)`` and multiplicity ``(U,)`` of each phi row,
    read off ``state.rows``."""
    row_count = state.phi.shape[0]
    first = np.zeros(row_count, dtype=np.intp)
    first[state.rows] = np.arange(state.rows.size)
    multiplicity = np.bincount(state.rows, minlength=row_count).astype(np.float64)
    return values[first], multiplicity


def _distinct_rows(values):
    """The index from each record to its distinct value tuple.  One sort of
    the rows viewed as opaque byte strings, so no combined key can
    overflow."""
    n, field_count = values.shape
    if field_count == 0:  # every record carries the empty tuple
        return np.zeros(n, dtype=np.intp)
    values = np.ascontiguousarray(values)
    as_bytes = values.view(np.dtype((np.void, values.dtype.itemsize * field_count)))
    return np.unique(as_bytes.ravel(), return_inverse=True)[1]


def _block_counts(p, values, weights, cardinalities):
    """Weighted value counts of every field over one block of phi rows
    ``p``: per field, a (V_f, K) table.  The row weights are scattered
    into a (rows, V_f) indicator per field, which multiplies into ``p``."""
    at = np.arange(p.shape[0])
    parts = []
    for f, v_f in enumerate(cardinalities):
        indicator = np.zeros((p.shape[0], v_f))
        indicator[at, values[:, f]] = weights
        parts.append(indicator.T @ p)
    return parts


def _field_counts(phi, values, weights, cardinalities, workers=1):
    """Weighted value counts of every field, in one pass over ``phi``:
    ``out[f][v, k]`` = sum over rows with ``values[u, f] == v`` of
    ``weights[u] * phi[u, k]``.  Deterministic for any worker count."""

    def block(bounds):
        lo, hi = bounds
        return _block_counts(phi[lo:hi], values[lo:hi], weights[lo:hi], cardinalities)

    totals = [np.zeros((v_f, phi.shape[1])) for v_f in cardinalities]
    return _fold_blocks(block, totals, phi.shape, workers)


def _anchor_weights(n, seed):
    return np.random.default_rng(seed).uniform(0.05, 0.3, size=n)


def _seeded_lambda(corpus, hp, seed):
    """The lam that :func:`update_lambda` gives on the anchored start of
    :func:`init_state`, in closed form with no N x K array.  Per field,

        counts[v, k] = sum_{x_n = v} (1 - w_n) / K
                     + sum_{x_n = v, n mod K = k} w_n

    which costs O(N + K * V_f) and draws the same weights ``w``.
    """
    n, k = corpus.total_records, hp.entity_count
    w = _anchor_weights(n, seed)
    uniform_share = (1.0 - w) / k
    anchor = np.arange(n) % k
    lam = []
    for x, a_f in zip(corpus.values.T, hp.alpha):
        v_f = a_f.size
        spread = np.bincount(x, weights=uniform_share, minlength=v_f)
        peak = np.bincount(anchor * v_f + x, weights=w, minlength=k * v_f)
        lam.append(a_f[None, :] + spread[None, :] + peak.reshape(k, v_f))
    return lam


def init_state(corpus, hp, seed):
    """Seeded soft-anchored start, one row per record, with its lam.

    Record ``n`` leans on entity ``n mod K`` with a random weight drawn from
    U(0.05, 0.3); the rest of its mass is uniform over all K entities.
    Randomized symmetry breaking is mandatory — exactly uniform phi makes
    every entity identical and is a fixed point of both updates — but it
    must be anchored and soft: unanchored jitter lets a few early entities
    absorb records of many distinct individuals (merges that coordinate
    ascent can never split), while hard per-record anchors freeze out the
    slightly-corrupted records (their one mismatched field is too expensive
    to move under a small concentration until clusters carry some mass).
    The random weights also decide, for near-duplicate records anchored to
    different entities, which anchor the merged cluster keeps.

    ``lam`` is the lam update of that phi, computed in closed form; it is
    all that :func:`fit` needs of the start, which it builds without phi.
    """
    _check_compatible(corpus, hp)
    n, k = corpus.total_records, hp.entity_count
    w = _anchor_weights(n, seed)
    phi = np.empty((n, k))
    phi[:] = ((1.0 - w) / k)[:, None]
    phi[np.arange(n), np.arange(n) % k] += w
    return VariationalState(phi=phi, lam=_seeded_lambda(corpus, hp, seed))


def _check_compatible(corpus, hp):
    if len(hp.alpha) != corpus.schema.field_count:
        raise ValueError(
            f"{len(hp.alpha)} alpha vectors for {corpus.schema.field_count} fields"
        )
    for f, (a, v_f) in enumerate(zip(hp.alpha, corpus.schema.cardinalities)):
        if a.shape != (v_f,):
            raise ValueError(f"alpha for field {f} has length {a.shape[0]}, not {v_f}")


def _lambda_of_counts(alpha, counts):
    """lam = alpha + counts, per field a C-ordered (K, V_f) array, so a copy
    or a reloaded checkpoint sums each row of lam in the same order."""
    return [np.add(a_f, c_f.T, order="C") for a_f, c_f in zip(alpha, counts)]


def update_lambda(state, corpus, hp, workers=1):
    """Closed-form Dirichlet update: prior plus multiplicity- and
    responsibility-weighted counts."""
    values, weights = _row_patterns(state, corpus.values)
    counts = _field_counts(
        state.phi, values, weights, corpus.schema.cardinalities, workers
    )
    state.lam[:] = _lambda_of_counts(hp.alpha, counts)
    return state.lam


def _score_tables(state):
    """Per field, the (V_f, K) table of psi(lam) - psi(row sum of lam)."""
    tables = []
    for lam_f in state.lam:
        t = digamma(lam_f) - digamma(lam_f.sum(axis=1))[:, None]
        tables.append(np.ascontiguousarray(t.T))
    return tables


def _log_beta(a):
    """ln B(a) along the last axis: sum ln Gamma(a) - ln Gamma(sum a)."""
    return gammaln(a).sum(axis=-1) - gammaln(a.sum(axis=-1))


def _normalise_block(out, tables, values):
    """Responsibilities of one block of rows, written into ``out`` (rows,
    K): the rows' scores are summed in place, the row max is subtracted
    before the exp so large field counts cannot overflow, and each row is
    divided by its sum.  Returns each row's log normaliser, the row max
    plus the log of the row sum."""
    out.fill(0.0)
    for f, table in enumerate(tables):
        out += table[values[:, f]]
    top = out.max(axis=1)
    out -= top[:, None]
    np.exp(out, out=out)
    total = out.sum(axis=1)
    out /= total[:, None]
    return top + np.log(total)


def update_phi(state, corpus, hp, workers=1):
    """Log-space responsibility update, one block of rows at a time,
    normalized in place in ``phi``."""
    tables = _score_tables(state)
    x, _ = _row_patterns(state, corpus.values)

    def block(bounds):
        lo, hi = bounds
        _normalise_block(state.phi[lo:hi], tables, x[lo:hi])

    for _ in _map_blocks(block, _blocks(*state.phi.shape), workers):
        pass
    return state.phi


def _phi_entropy_sum(phi, weights, workers=1):
    """sum over rows of weights[u] * sum_k phi[u, k] * log(phi[u, k]), with
    0 log 0 = 0."""

    def block(bounds):
        lo, hi = bounds
        p = phi[lo:hi]
        out = np.zeros_like(p)
        mask = p > 0.0
        np.log(p, out=out, where=mask)
        out *= p
        return float(out.sum(axis=1) @ weights[lo:hi])

    return math.fsum(_map_blocks(block, _blocks(*phi.shape), workers))


def elbo(state, corpus, hp, workers=1):
    """Evidence lower bound of the current state, in bracket form:

        sum_{k,f} [ <alpha_f + counts[k, f] - lam[k, f], T_f[:, k]>
                    + ln B(lam[k, f]) - ln B(alpha_f) ]
        - sum_u m[u] sum_k phi[u, k] log phi[u, k] - N log K

    with T_f the score tables of ``lam``.  The expected log likelihood,
    the Dirichlet prior and the q(beta) terms collect into the bracket,
    which vanishes at lam = alpha + counts.  Valid for any (phi, lam);
    equals log p(x) exactly when K = 1.
    """
    k = state.entity_count
    values, weights = _row_patterns(state, corpus.values)
    counts = _field_counts(
        state.phi, values, weights, corpus.schema.cardinalities, workers
    )
    total = 0.0
    for lam_f, a_f, c_f, t_f in zip(state.lam, hp.alpha, counts, _score_tables(state)):
        total += float(np.sum((a_f[:, None] + c_f - lam_f.T) * t_f))
        total += float(np.sum(_log_beta(lam_f))) - k * float(_log_beta(a_f))
    total -= _phi_entropy_sum(state.phi, weights, workers)
    total -= float(weights.sum()) * math.log(k)
    return total


def elbo_grad_lambda(state, corpus, hp, k, f, v):
    """Partial derivative of the ELBO in lam[f][k, v] (0-based indices).

    Two-term trigamma form; zero at the fixed point reached by
    :func:`update_lambda`.
    """
    values, weights = _row_patterns(state, corpus.values)
    counts = np.bincount(
        values[:, f], weights=weights * state.phi[:, k], minlength=hp.alpha[f].size
    )
    bracket = hp.alpha[f] - state.lam[f][k] + counts
    return float(
        polygamma(1, state.lam[f][k, v]) * bracket[v]
        - polygamma(1, state.lam[f][k].sum()) * bracket.sum()
    )


def _sweep(state, values, weights, hp, workers):
    """One fit sweep on a state with one phi row per distinct tuple
    (``values`` (U, F), multiplicities ``weights`` (U,)): the phi update,
    the lam update and the ELBO, from one blocked pass over phi.  Returns
    the ELBO.

    Each block of rows is normalized in place and, while it is still in
    cache, returns its weighted log-normaliser sum and field counts.  With
    lam = alpha + counts the likelihood, prior and q(beta) terms telescope:

        ELBO = sum_{k,f} [ln B(lam[k, f]) - ln B(alpha[f])]
               - (sum_f <counts_f, T_f> - sum_u m[u] lse[u]) - N log K

    where T_f are the score tables of the lam that produced phi.  Since
    log phi[u, k] = sum_f T_f[x[u, f], k] - lse[u], the bracket is the
    weighted sum of phi log phi, so the entropy needs no second read of
    phi and the ELBO costs O(K * sum V_f + U).
    """
    tables = _score_tables(state)
    cards = [a_f.size for a_f in hp.alpha]
    phi = state.phi

    def block(bounds):
        lo, hi = bounds
        x, m = values[lo:hi], weights[lo:hi]
        lse = _normalise_block(phi[lo:hi], tables, x)
        return [lse @ m, *_block_counts(phi[lo:hi], x, m, cards)]

    totals = [np.zeros(()), *(np.zeros((v_f, phi.shape[1])) for v_f in cards)]
    log_normaliser, *counts = _fold_blocks(block, totals, phi.shape, workers)
    state.lam[:] = _lambda_of_counts(hp.alpha, counts)
    k = state.entity_count
    total = float(log_normaliser) - float(weights.sum()) * math.log(k)
    for lam_f, a_f, c_f, t_f in zip(state.lam, hp.alpha, counts, tables):
        total += float(np.sum(_log_beta(lam_f))) - k * float(_log_beta(a_f))
        total -= float(np.sum(c_f * t_f))
    return total


def _state_stats(state):
    phi, lams = state.phi, state.lam
    parts = [
        f"phi range [{phi.min() if phi.size else 0}, {phi.max() if phi.size else 0}]",
        f"phi non-finite {int(np.size(phi) - np.isfinite(phi).sum())}",
    ]
    for f, lam_f in enumerate(lams):
        parts.append(
            f"lam[{f}] range [{lam_f.min()}, {lam_f.max()}] "
            f"non-finite {int(np.size(lam_f) - np.isfinite(lam_f).sum())}"
        )
    return "; ".join(parts)


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

    The distinct value tuples and their multiplicities are found once;
    every sweep runs on them, and the returned state has one phi row per
    distinct tuple.  Each sweep is one blocked pass over phi that does the
    phi update, the lam update and the ELBO (see :func:`_sweep`); it gives
    what :func:`update_phi`, :func:`update_lambda` and :func:`elbo` give.
    ``initial_lam`` (per field, a (K, V_f) array) overrides the seeded
    start and the seed is then unused; the caller's arrays are not
    written.  lam is the whole state of a fit, so a fit started from the
    lam of sweep S (say, from :func:`load_state`) repeats sweeps S+1, ...
    of the fit it came from bit for bit.  ``on_sweep(sweep, elbo, state)``
    is called after every sweep.
    Returns ``(state, FitReport)``; the trace is nondecreasing up to
    roundoff because each step maximizes the same objective, and the
    report counts the sweeps where it fell by more than ``DECREASE_SLACK``
    relative.
    """
    _check_fit_options(max_sweeps, rel_tol, workers)
    start = time.perf_counter()
    _check_compatible(corpus, hp)
    if initial_lam is None:
        lam = _seeded_lambda(corpus, hp, seed)
    else:
        lam = list(initial_lam)
        _check_lam(lam, hp.entity_count, corpus.schema.cardinalities)
    rows = _distinct_rows(corpus.values)
    distinct = int(rows.max(initial=-1)) + 1
    state = VariationalState(
        phi=np.empty((distinct, hp.entity_count)), lam=lam, rows=rows
    )
    values, weights = _row_patterns(state, corpus.values)
    trace = []
    decreases = 0
    converged = False
    for sweep in range(1, max_sweeps + 1):
        value = _sweep(state, values, weights, hp, workers)
        if not math.isfinite(value):
            raise NumericalFailureError(
                sweep, f"ELBO is {value}; {_state_stats(state)}"
            )
        if trace and value < trace[-1] - DECREASE_SLACK * abs(trace[-1]):
            decreases += 1
        trace.append(value)
        if on_sweep is not None:
            on_sweep(sweep, value, state)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) <= rel_tol * abs(trace[-1]):
            converged = True
            break
    report = FitReport(
        elbo_trace=trace,
        sweeps_run=len(trace),
        converged=converged,
        wall_time=time.perf_counter() - start,
        distinct_records=distinct,
        elbo_decreases=decreases,
    )
    return state, report


def _check_fit_options(max_sweeps, rel_tol, workers):
    """The checks on :func:`fit`'s options; the command line runs them
    before it reads any input or writes any output."""
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    if workers < 1:
        raise ValueError("workers must be >= 1")


def _check_lam(lam, entity_count, cardinalities):
    """Per field, a (K, V_f) table of finite, strictly positive entries."""
    if len(lam) != len(cardinalities):
        raise ValueError(f"{len(lam)} lam tables for {len(cardinalities)} fields")
    for f, (lam_f, v_f) in enumerate(zip(lam, cardinalities)):
        if np.shape(lam_f) != (entity_count, v_f):
            raise ValueError(
                f"lam for field {f} has shape {np.shape(lam_f)}, "
                f"not {(entity_count, v_f)}"
            )
        if not np.all(np.isfinite(lam_f) & (lam_f > 0.0)):
            raise ValueError(f"lam for field {f} must be finite and strictly positive")


def save_state(path, lam, corpus, hp):
    """Checkpoint ``lam`` with alpha and a header describing the problem
    shape, as an ``.npz`` archive written to ``path`` as given.

    lam is the whole state of a fit: each sweep computes phi from lam, so
    ``fit(corpus, hp, initial_lam=lam)`` on the loaded lam continues the
    fit bit for bit, and :func:`update_phi` gives its phi.
    """
    arrays = {
        "version": np.asarray(STATE_FORMAT_VERSION),
        "db_sizes": np.asarray(corpus.db_sizes, dtype=np.int64),
        "cardinalities": np.asarray(corpus.schema.cardinalities, dtype=np.int64),
        "entity_count": np.asarray(hp.entity_count),
    }
    for f, (a_f, lam_f) in enumerate(zip(hp.alpha, lam)):
        arrays[f"alpha_{f}"] = a_f
        arrays[f"lam_{f}"] = lam_f
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_state(path):
    """Read a checkpoint; returns ``(lam, header_dict)``.

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
            "alpha": [read(f"alpha_{f}") for f in range(len(cards))],
        }
        lam = [read(f"lam_{f}") for f in range(len(cards))]
    _check_lam(lam, header["entity_count"], cards)
    for f, (a_f, v_f) in enumerate(zip(header["alpha"], cards)):
        if a_f.shape != (v_f,):
            raise ValueError(f"alpha for field {f} has shape {a_f.shape}, not ({v_f},)")
    return lam, header
