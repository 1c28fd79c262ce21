"""Linkage decisions from fitted states, and pairwise scoring against truth.

A linkage assigns every record its MAP entity under the fitted
responsibilities.  Scoring is over record pairs: a pair is positive when
both records carry the same label, and precision/recall compare predicted
positives against true positives.  The pair counts come from a label
contingency table, not an O(N^2) pair loop.

Entity ids in :class:`Linkage` and in all files are 1-based, matching the
CSV formats; flat record indices in the programmatic interface are 0-based.
Linkage and ground-truth files are record tables (see
:func:`vblink.corpus.write_record_table`).
"""

from dataclasses import dataclass

import numpy as np

from .corpus import read_record_table, write_record_table
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

    @property
    def total_records(self):
        return int(self.map_entity.shape[0])

    @property
    def entity_count_estimate(self):
        return int(np.unique(self.map_entity).size)


@dataclass
class LinkageScore:
    pairwise_precision: float
    pairwise_recall: float
    pairwise_f1: float
    true_entity_count: int
    estimated_entity_count: int


def map_linkage(state, db_sizes):
    """MAP entity per record; ties break toward the smallest entity index.
    The argmax is taken once per phi row, then read off for each record."""
    labels = np.argmax(state.phi, axis=1)
    probs = state.phi[np.arange(state.phi.shape[0]), labels]
    return Linkage(
        db_sizes=db_sizes,
        map_entity=labels[state.rows] + 1,
        max_prob=probs[state.rows],
    )


def _pair_count(counts):
    c = counts.astype(np.int64)
    return int(np.sum(c * (c - 1) // 2))


def _label_pair_counts(pred, true):
    """(same-pred pairs, same-true pairs, same-both pairs) via contingency."""
    pred_pairs = _pair_count(np.unique(pred, return_counts=True)[1])
    true_pairs = _pair_count(np.unique(true, return_counts=True)[1])
    joint = np.unique(np.stack([pred, true], axis=1), axis=0, return_counts=True)[1]
    return pred_pairs, true_pairs, _pair_count(joint)


def pairwise_metrics(predicted, truth):
    """Precision/recall/F1 over record pairs.

    Degenerate conventions: precision is 1.0 when the prediction links no
    pairs, recall is 1.0 when the truth links none, so all-singleton
    predictions score perfectly on all-singleton truth.
    """
    if tuple(predicted.db_sizes) != tuple(truth.db_sizes):
        raise ValueError(
            f"prediction covers databases {tuple(predicted.db_sizes)}, "
            f"truth covers {tuple(truth.db_sizes)}"
        )
    pred_pairs, true_pairs, both = _label_pair_counts(
        predicted.map_entity, truth.assignments
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
        true_entity_count=int(np.unique(truth.assignments).size),
        estimated_entity_count=predicted.entity_count_estimate,
    )


def posterior_cocluster_estimate(state, pairs):
    """Mean-field co-clustering probability sum_k phi[i, k] * phi[j, k]
    for each (i, j) pair of flat record indices."""
    rows = state.rows
    n = rows.shape[0]
    out = np.empty(len(pairs))
    for idx, (i, j) in enumerate(pairs):
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"record pair ({i}, {j}) outside 0..{n - 1}")
        out[idx] = float(np.dot(state.phi[rows[i]], state.phi[rows[j]]))
    return out


def write_linkage(path, linkage):
    """Record table ``db,record,entity,max_prob``; all ids 1-based."""
    write_record_table(
        path,
        linkage.db_sizes,
        {"entity": linkage.map_entity, "max_prob": linkage.max_prob},
    )


def read_linkage(path):
    db_sizes, (entities, probs) = read_record_table(
        path, {"entity": np.int64, "max_prob": np.float64}
    )
    return Linkage(db_sizes=db_sizes, map_entity=entities, max_prob=probs)


def read_ground_truth(path):
    """Read a ``db,record,entity`` file back as a label-only GroundTruth
    (schema, latent values, and noise distributions are not stored there)."""
    db_sizes, (labels,) = read_record_table(path, {"entity": np.int64})
    if labels.size and labels.min() < 1:
        raise ValueError(f"{path}: entity ids are 1-based")
    return GroundTruth(schema=None, db_sizes=db_sizes, assignments=labels - 1)
