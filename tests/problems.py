"""Hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from vblink.corpus import Corpus, Schema
from vblink.engine import HyperParams


@st.composite
def tiny_problems(draw, max_records=12, max_entities=5):
    """A random corpus of 1 to ``max_records`` records, at most 3 fields of
    at most 4 values and 1 or 2 databases, with at most ``max_entities``
    entities."""
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
    alpha = draw(st.sampled_from([0.1, 0.5, 2.0]))
    return corpus, HyperParams.symmetric(
        draw(st.integers(1, max_entities)), alpha, cards
    )
