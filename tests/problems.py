"""Hypothesis strategies and state helpers shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from vblink.corpus import Corpus, Schema
from vblink.engine import HyperParams, _check_lam

from reference import VariationalState, elbo


@st.composite
def tiny_problems(draw, max_records=12, max_entities=5):
    """A random corpus of 1 to ``max_records`` records, at most 3 fields of
    at most 4 values and 1 or 2 databases, with at most ``max_entities``
    entities and a stacked alpha whose entries each lie in [0.1, 2]."""
    cards = draw(st.lists(st.integers(1, 4), max_size=3))
    n = draw(st.integers(1, max_records))
    row = st.tuples(*(st.integers(0, v - 1) for v in cards))
    values = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=np.int32)
    first_db = draw(st.integers(0, n))
    corpus = Corpus(
        schema=Schema(
            tuple(f"f{f}" for f in range(len(cards))),
            tuple(tuple(str(c) for c in range(v)) for v in cards),
        ),
        db_sizes=(first_db, n - first_db),
        values=values.reshape(n, len(cards)),
    )
    concentration = st.floats(0.1, 2.0)
    alpha = draw(st.lists(concentration, min_size=sum(cards), max_size=sum(cards)))
    return corpus, HyperParams(draw(st.integers(1, max_entities)), alpha)


def copy_state(state):
    return VariationalState(
        phi=state.phi.copy(), lam=state.lam.copy(), rows=state.rows.copy()
    )


def central_differences(state, corpus, hp, h=1e-5):
    """The (sum V_f, K) table of central differences of :func:`elbo` in
    each entry of ``state.lam``."""
    table = np.empty_like(state.lam)
    for index in np.ndindex(*state.lam.shape):
        hi, lo = copy_state(state), copy_state(state)
        hi.lam[index] += h
        lo.lam[index] -= h
        table[index] = (elbo(hi, corpus, hp) - elbo(lo, corpus, hp)) / (2 * h)
    return table


def validate(state, atol=1e-12):
    """Check the row index, simplex, finiteness and positivity invariants of
    a state; raise ``ValueError`` on violation."""
    rows, row_count = state.rows, state.phi.shape[0]
    if (
        rows.ndim != 1
        or not np.issubdtype(rows.dtype, np.integer)
        or (rows.size and (rows.min() < 0 or rows.max() >= row_count))
    ):
        raise ValueError(f"rows must be a 1-D index into the {row_count} phi rows")
    if not np.all(np.isfinite(state.phi) & (state.phi > 0.0)):
        raise ValueError("phi must be finite and strictly positive")
    if state.phi.size:
        err = np.max(np.abs(state.phi.sum(axis=1) - 1.0))
        if err > atol:
            raise ValueError(f"phi rows deviate from the simplex by {err}")
    _check_lam(state.lam, (len(state.lam), state.entity_count))
