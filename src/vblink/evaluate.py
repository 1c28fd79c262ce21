"""Linkage decisions from fitted states, and pairwise scoring against truth.

A linkage assigns every record its MAP entity under the fitted
responsibilities, which a fit keeps per distinct value tuple.  Scoring is
over record pairs: a pair is positive when both records carry the same
label, and precision/recall compare predicted positives against true
positives.  The pair counts come from a label contingency table, not an
O(N^2) pair loop.

Entity ids in :class:`Linkage` and in all files are 1-based, matching the
CSV formats; flat record indices in the programmatic interface are 0-based.
Linkage and ground-truth files are record tables (see
:func:`vblink.corpus.write_record_table`).
"""

from dataclasses import dataclass

import numpy as np

from .corpus import read_record_table, write_entity_table, write_record_table
from .engine import _starts
from .genmodel import GroundTruth


@dataclass(eq=False)
class Linkage:
    """Per-record MAP entity labels (1-based) and their probabilities."""

    db_sizes: tuple
    map_entity: np.ndarray
    max_prob: np.ndarray

    def __post_init__(self):
        self.db_sizes = tuple(int(s) for s in self.db_sizes)
        self.map_entity = np.asarray(self.map_entity, dtype=np.int64)
        self.max_prob = np.asarray(self.max_prob, dtype=np.float64)
        n = sum(self.db_sizes)
        if self.map_entity.shape != (n,) or self.max_prob.shape != (n,):
            raise ValueError("label/probability arrays must cover every record")
        if n and np.min(self.map_entity) < 1:
            raise ValueError("entity labels are 1-based")


@dataclass
class LinkageScore:
    pairwise_precision: float
    pairwise_recall: float
    pairwise_f1: float
    true_entity_count: int
    estimated_entity_count: int


def map_linkage(state, db_sizes):
    """MAP entity per record from a fit's :class:`vblink.engine.FitState`:
    each distinct tuple's argmax (ties break toward the smallest entity
    index) and its responsibility, read off for each record."""
    return Linkage(
        db_sizes=db_sizes,
        map_entity=state.argmax[state.rows] + 1,
        max_prob=state.max_prob[state.rows],
    )


def pairwise_metrics(predicted, truth):
    """Precision/recall/F1 over record pairs.

    Degenerate conventions: precision is 1.0 when the prediction links no
    pairs, recall is 1.0 when the truth links none, so all-singleton
    predictions score perfectly on all-singleton truth.  Each labelling is
    sorted once, and a record's contingency cell numbered by its two indices.
    """
    if tuple(predicted.db_sizes) != tuple(truth.db_sizes):
        raise ValueError(
            f"prediction covers databases {tuple(predicted.db_sizes)}, "
            f"truth covers {tuple(truth.db_sizes)}"
        )
    (_, pred, pred_counts), (_, true, true_counts) = (
        np.unique(labels, return_inverse=True, return_counts=True)
        for labels in (predicted.map_entity, truth.assignments)
    )
    joint = np.unique(pred * len(true_counts) + true, return_counts=True)[1]
    # Same-label pairs in the prediction, in the truth, and in both.
    pred_pairs, true_pairs, both = (
        int(np.sum(c * (c - 1) // 2)) for c in (pred_counts, true_counts, joint)
    )
    precision = both / pred_pairs if pred_pairs else 1.0
    recall = both / true_pairs if true_pairs else 1.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0.0
        else 0.0
    )
    return LinkageScore(
        pairwise_precision=float(precision),
        pairwise_recall=float(recall),
        pairwise_f1=float(f1),
        true_entity_count=len(true_counts),
        estimated_entity_count=len(pred_counts),
    )


def posterior_cocluster_estimate(phi, rows, pairs):
    """Mean-field co-clustering probability sum_k phi[i, k] * phi[j, k]
    for each (i, j) pair of flat record indices, as a row-wise dot.
    ``phi`` (U, K) holds one row per distinct value tuple, as
    :func:`vblink.engine.last_phi` gives it, and ``rows`` (N,) maps each
    record to its row."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(len(pairs), 2)
    n = rows.shape[0]
    outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if outside.any():
        i, j = pairs[outside][0]
        raise IndexError(f"record pair ({i}, {j}) outside 0..{n - 1}")
    phi = phi[rows[pairs]]  # (pairs, 2, K)
    return np.einsum("pk,pk->p", phi[:, 0], phi[:, 1])


def write_linkage(path, linkage):
    """Record table ``db,record,entity,max_prob``; all ids 1-based."""
    write_record_table(
        path,
        linkage.db_sizes,
        {"entity": linkage.map_entity, "max_prob": linkage.max_prob},
    )


def write_entities(path, state, schema):
    """Entity table ``entity,field,value`` of a fit's resolved entities:
    those some distinct tuple, and so some record, takes as its MAP
    (``state.argmax``), each with its modal value per field f: the argmax
    of its column over f's rows of ``state.lam``, the first maximum, so
    ties go to the smallest code."""
    # bincount finds the set np.unique would, without a sort.
    entities = np.flatnonzero(np.bincount(state.argmax))
    cards = schema.cardinalities
    modes = [
        state.lam[a : a + v, entities].argmax(axis=0)
        for a, v in zip(_starts(cards), cards)
    ]
    codes = np.reshape(modes, (len(cards), len(entities))).T
    write_entity_table(path, schema, entities + 1, codes)


def _refuse_rows(path, name, column, bad, rule):
    """Raise ``ValueError`` naming ``path``, the first row (1-based, after
    the header) where ``bad`` holds, its value in the ``name`` column, and
    the ``rule`` it breaks."""
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"{path}: row {i + 1} has {name} {column[i].item()!r}; {rule}")


def read_linkage(path):
    """Read a ``db,record,entity,max_prob`` file back as a :class:`Linkage`.
    Entity ids are 1-based, and each ``max_prob`` is a probability: a NaN
    or a value outside [0, 1] is refused, naming the file and its first
    such row."""
    db_sizes, (entities, probs) = read_record_table(
        path, {"entity": np.int64, "max_prob": np.float64}
    )
    _refuse_rows(path, "entity", entities, entities < 1, "entity ids are 1-based")
    in_range = (probs >= 0.0) & (probs <= 1.0)  # False at NaN
    _refuse_rows(path, "max_prob", probs, ~in_range, "max_prob must lie in [0, 1]")
    return Linkage(db_sizes=db_sizes, map_entity=entities, max_prob=probs)


def read_ground_truth(path):
    """Read a ``db,record,entity`` file back as a label-only GroundTruth
    (schema, latent values, and noise distributions are not stored there)."""
    db_sizes, (labels,) = read_record_table(path, {"entity": np.int64})
    _refuse_rows(path, "entity", labels, labels < 1, "entity ids are 1-based")
    return GroundTruth(schema=None, db_sizes=db_sizes, assignments=labels - 1)
