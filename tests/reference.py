"""The reference the tests hold :func:`vblink.engine.fit` to: the three
updates of the model for any :class:`VariationalState` (phi, lam, rows),
with phi held.  Each makes one pass of the sweep's own ``engine._pass``,
whose step returns the block's rows of phi: :func:`update_phi` normalises
each block into phi and drops the counts, :func:`update_lambda` counts
phi as it is, and :func:`elbo` takes the counts and the entropy
sum m * ``scipy.special.entr``(phi) from one pass.  They share T, ln B
and lam = alpha + counts with the sweep.  :func:`elbo` is in bracket
form, <alpha + counts - lam, T> + sum ln B(lam) - K * sum_f ln B(alpha_f),
which at lam = alpha + counts is the sweep's closed form, and
:func:`elbo_grad_lambda` is its gradient in lam.  Each row's columns and
multiplicity come from :func:`_row_patterns`, for any ``rows``, not from
the engine's tuple view.  The engine's building blocks are looked up on
the module at call time, so a test that patches one patches the
reference too.
"""

import math
from dataclasses import dataclass

import numpy as np

import vblink.engine as engine


@dataclass(eq=False)
class VariationalState:
    """Responsibilities ``phi`` (U, K), the (N,) index ``rows`` from each
    record to its row of ``phi``, and the Dirichlet parameters ``lam``
    (sum V_f, K), field f's (V_f, K) table ``lam[offset_f : offset_f +
    V_f]``, offset_f = V_0 + ... + V_{f-1}.

    Records that share a row must carry the same value tuple.  Without
    ``rows`` every record has its own row (``rows`` = 0..N-1).  ``phi``
    and ``lam`` are taken as float64 arrays.
    """

    phi: np.ndarray
    lam: np.ndarray
    rows: np.ndarray = None

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=np.float64)
        self.lam = np.asarray(self.lam, dtype=np.float64)
        if self.rows is None:
            self.rows = np.arange(self.phi.shape[0])

    @property
    def entity_count(self):
        return int(self.phi.shape[1])


def init_state(corpus, hp, seed):
    """The fit's seeded soft-anchored start (see
    ``engine._seeded_lambda``), one row per record, with its phi held."""
    engine._check_compatible(corpus, hp)
    n, k = corpus.total_records, hp.entity_count
    w = engine._anchor_weights(n, seed)
    phi = np.empty((n, k))
    phi[:] = ((1.0 - w) / k)[:, None]
    phi[np.arange(n), np.arange(n) % k] += w
    return VariationalState(phi=phi, lam=engine._seeded_lambda(corpus, hp, seed))


def reference_state(state, corpus):
    """A fit's last sweep as a :class:`VariationalState`: the phi that
    sweep normalised, and its lam update ``state.lam``."""
    return VariationalState(engine.last_phi(state, corpus), state.lam, state.rows)


def _row_patterns(rows, row_count, corpus):
    """Stacked columns (U, F) and multiplicity (U,) of each of
    ``row_count`` rows, read off the (N,) index ``rows`` from each record to
    its row, which need not be the engine's (say, one row per record)."""
    first = np.zeros(row_count, dtype=np.intp)
    first[rows] = np.arange(rows.size)
    multiplicity = np.bincount(rows, minlength=row_count).astype(np.float64)
    columns = engine._columns(corpus.values[first], corpus.schema.cardinalities)
    return columns, multiplicity


def _counts(state, corpus):
    """The (sum V_f, K) counts of a state's phi, from one pass that leaves
    phi as it is."""
    columns, weights = _row_patterns(state.rows, len(state.phi), corpus)
    width = sum(corpus.schema.cardinalities)
    return engine._pass(
        columns, weights, width, state.entity_count,
        lambda lo, hi, x: (0.0, state.phi[lo:hi]),
    )[1]


def update_lambda(state, corpus, hp):
    """Closed-form Dirichlet update: prior plus multiplicity- and
    responsibility-weighted counts, from a pass that leaves phi as it is."""
    state.lam = hp.alpha[:, None] + _counts(state, corpus)
    return state.lam


def update_phi(state, corpus, hp):
    """Log-space responsibility update, normalized into ``phi`` by one
    pass whose counts are dropped."""
    table = engine._score_tables(state.lam, corpus.schema.cardinalities)
    columns, weights = _row_patterns(state.rows, len(state.phi), corpus)

    def step(lo, hi, x):
        p = state.phi[lo:hi]
        return engine._normalise_block(x @ table, p)[2] @ weights[lo:hi], p

    engine._pass(columns, weights, table.shape[0], state.entity_count, step)
    return state.phi


def elbo(state, corpus, hp):
    """Evidence lower bound of the current state, in bracket form:

        <alpha + counts - lam, T> + sum_{k,f} [ln B(lam[k, f]) - ln B(alpha_f)]
        - sum_u m[u] sum_k phi[u, k] log phi[u, k] - N log K

    with T the score table of ``lam``, alpha stacked and broadcast over
    the K columns, and 0 log 0 = 0.  The counts and the entropy come from
    one pass over phi.  The expected log likelihood, the Dirichlet prior
    and the q(beta) terms collect into the bracket, which vanishes at
    lam = alpha + counts.  Valid for any (phi, lam); equals log p(x)
    exactly when K = 1.
    """
    from scipy.special import entr

    k = state.entity_count
    columns, weights = _row_patterns(state.rows, len(state.phi), corpus)
    cards = corpus.schema.cardinalities

    def step(lo, hi, x):
        p = state.phi[lo:hi]
        return entr(p).sum(axis=1) @ weights[lo:hi], p

    entropy, counts = engine._pass(columns, weights, sum(cards), k, step)
    bracket = hp.alpha[:, None] + counts - state.lam
    return (
        float(entropy) - float(weights.sum()) * math.log(k)
        + float(np.vdot(bracket, engine._score_tables(state.lam, cards)))
        + engine._log_beta(state.lam, cards) - k * engine._log_beta(hp.alpha, cards)
    )


def elbo_grad_lambda(state, corpus, hp):
    """The (sum V_f, K) table of the ELBO's partial derivatives in lam.
    With bracket = alpha + counts - lam, the bracket of :func:`elbo`, the
    entry at row j of field f and entity k is

        psi'(lam[j, k]) * bracket[j, k]
        - psi'(field f's sum of lam[:, k]) * (field f's sum of bracket[:, k])

    with psi' the trigamma function; zero at the fixed point reached by
    :func:`update_lambda`.
    """
    from scipy.special import polygamma

    cards = corpus.schema.cardinalities
    bracket = hp.alpha[:, None] + _counts(state, corpus) - state.lam
    fields = polygamma(1, engine._field_sums(state.lam, cards))
    fields *= engine._field_sums(bracket, cards)
    return polygamma(1, state.lam) * bracket - np.repeat(fields, cards, axis=0)
