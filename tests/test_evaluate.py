import json

import numpy as np
import pytest

from vblink.cli import main
from vblink.engine import FitState, _normalise_block
from vblink.evaluate import (
    Linkage,
    LinkageScore,
    map_linkage,
    pairwise_metrics,
    posterior_cocluster_estimate,
    read_ground_truth,
    read_linkage,
    write_linkage,
)
from vblink.genmodel import GenConfig, GroundTruth, sample_dataset, write_ground_truth


def state_from_phi(phi, rows=None):
    """A fit state whose last sweep's responsibilities are ``phi``: its MAP
    arrays come from normalising the scores log(phi), as a sweep does."""
    phi = np.asarray(phi, dtype=np.float64)
    with np.errstate(divide="ignore"):
        scores = np.log(phi)
    argmax, total, _ = _normalise_block(scores, scores)
    lam = np.ones((2, phi.shape[1]))
    return FitState(
        lam=lam,
        prev=lam,
        rows=np.arange(len(phi)) if rows is None else np.asarray(rows),
        argmax=argmax,
        max_prob=1.0 / total,
    )


def truth_of(labels, db_sizes=None):
    labels = np.asarray(labels, dtype=np.int64)
    sizes = tuple(db_sizes) if db_sizes else (len(labels),)
    return GroundTruth(schema=None, db_sizes=sizes, assignments=labels)


def linkage_of(labels, db_sizes=None):
    labels = np.asarray(labels, dtype=np.int64)
    sizes = tuple(db_sizes) if db_sizes else (len(labels),)
    return Linkage(
        db_sizes=sizes, map_entity=labels, max_prob=np.ones(len(labels))
    )


class TestMapLinkage:
    def test_argmax_and_probability(self):
        state = state_from_phi([[0.2, 0.8], [0.9, 0.1], [0.4, 0.6]])
        linkage = map_linkage(state, [2, 1])
        np.testing.assert_array_equal(linkage.map_entity, [2, 1, 2])
        np.testing.assert_allclose(linkage.max_prob, [0.8, 0.9, 0.6])
        assert linkage.db_sizes == (2, 1)
        assert np.unique(linkage.map_entity).size == 2

    def test_ties_break_to_smallest_entity(self):
        state = state_from_phi([[0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3]])
        linkage = map_linkage(state, [2])
        np.testing.assert_array_equal(linkage.map_entity, [1, 1])

    def test_single_entity(self):
        state = state_from_phi(np.ones((3, 1)))
        linkage = map_linkage(state, [3])
        np.testing.assert_array_equal(linkage.map_entity, [1, 1, 1])
        assert np.unique(linkage.map_entity).size == 1

    def test_records_sharing_a_row(self):
        state = state_from_phi([[0.2, 0.8], [0.9, 0.1]], rows=[1, 0, 1, 1])
        linkage = map_linkage(state, [3, 1])
        np.testing.assert_array_equal(linkage.map_entity, [1, 2, 1, 1])
        np.testing.assert_allclose(linkage.max_prob, [0.9, 0.8, 0.9, 0.9])


class TestLinkageValidation:
    def test_rejects_wrong_coverage(self):
        with pytest.raises(ValueError):
            Linkage(db_sizes=(3,), map_entity=np.ones(2), max_prob=np.ones(2))

    def test_rejects_zero_based_labels(self):
        with pytest.raises(ValueError):
            Linkage(
                db_sizes=(2,),
                map_entity=np.array([0, 1]),
                max_prob=np.ones(2),
            )


class TestPairwiseMetrics:
    def test_perfect_match(self):
        score = pairwise_metrics(linkage_of([1, 1, 2]), truth_of([5, 5, 9]))
        assert score.pairwise_precision == 1.0
        assert score.pairwise_recall == 1.0
        assert score.pairwise_f1 == 1.0
        assert score.true_entity_count == 2
        assert score.estimated_entity_count == 2

    def test_overmerged_prediction(self):
        # truth {0,1},{2}; predicting one blob links 3 pairs, 1 correct
        score = pairwise_metrics(linkage_of([1, 1, 1]), truth_of([0, 0, 1]))
        assert score.pairwise_precision == pytest.approx(1 / 3)
        assert score.pairwise_recall == 1.0
        assert score.pairwise_f1 == pytest.approx(0.5)

    def test_all_singletons_prediction(self):
        score = pairwise_metrics(linkage_of([1, 2, 3]), truth_of([0, 0, 0]))
        assert score.pairwise_precision == 1.0  # no predicted pairs
        assert score.pairwise_recall == 0.0
        assert score.pairwise_f1 == 0.0

    def test_all_singletons_both_sides(self):
        score = pairwise_metrics(linkage_of([3, 1, 2]), truth_of([2, 0, 1]))
        assert score.pairwise_f1 == 1.0

    def test_label_values_are_irrelevant(self):
        base = pairwise_metrics(linkage_of([1, 1, 2, 3]), truth_of([0, 1, 1, 2]))
        relabeled = pairwise_metrics(
            linkage_of([7, 7, 4, 9]), truth_of([5, 3, 3, 8])
        )
        assert relabeled == LinkageScore(
            base.pairwise_precision,
            base.pairwise_recall,
            base.pairwise_f1,
            base.true_entity_count,
            base.estimated_entity_count,
        )

    def test_db_sizes_must_match(self):
        with pytest.raises(ValueError):
            pairwise_metrics(
                linkage_of([1, 1, 2], db_sizes=[3]),
                truth_of([0, 0, 1], db_sizes=[2, 1]),
            )

    def test_partial_overlap_hand_count(self):
        # pred {0,1,2},{3}: 3 pairs; truth {0,1},{2,3}: 2 pairs; shared: (0,1)
        score = pairwise_metrics(linkage_of([1, 1, 1, 2]), truth_of([0, 0, 1, 1]))
        assert score.pairwise_precision == pytest.approx(1 / 3)
        assert score.pairwise_recall == pytest.approx(1 / 2)
        assert score.pairwise_f1 == pytest.approx(0.4)


class TestCoclusterEstimate:
    @staticmethod
    def estimate(phi, pairs, rows=None):
        phi = np.asarray(phi, dtype=np.float64)
        rows = np.arange(len(phi)) if rows is None else np.asarray(rows)
        return posterior_cocluster_estimate(phi, rows, pairs)

    def test_point_masses(self):
        out = self.estimate([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [(0, 1), (0, 2)])
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_uniform_rows_give_one_over_k(self):
        out = self.estimate(np.full((2, 4), 0.25), [(0, 1)])
        np.testing.assert_allclose(out, [0.25])

    def test_hand_computed_dot_product(self):
        out = self.estimate([[0.7, 0.3], [0.4, 0.6]], [(0, 1), (1, 0), (0, 0)])
        np.testing.assert_allclose(out, [0.46, 0.46, 0.58])

    def test_out_of_range_pair(self):
        with pytest.raises(IndexError):
            self.estimate([[1.0]], [(0, 1)])
        with pytest.raises(IndexError):
            self.estimate([[1.0]], [(-1, 0)])

    def test_records_sharing_a_row(self):
        phi, rows = [[0.7, 0.3], [0.4, 0.6]], [0, 1, 0]
        out = self.estimate(phi, [(0, 2), (1, 2), (2, 1)], rows)
        np.testing.assert_allclose(out, [0.58, 0.46, 0.46])
        with pytest.raises(IndexError):
            self.estimate(phi, [(0, 3)], rows)


class TestLinkageFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        probs = rng.random(5)
        original = Linkage(
            db_sizes=(3, 2),
            map_entity=np.array([2, 1, 2, 7, 7]),
            max_prob=probs,
        )
        path = tmp_path / "linkage.csv"
        write_linkage(path, original)
        loaded = read_linkage(path)
        assert loaded.db_sizes == (3, 2)
        np.testing.assert_array_equal(loaded.map_entity, original.map_entity)
        np.testing.assert_array_equal(loaded.max_prob, original.max_prob)

    def test_header_is_stable(self, tmp_path):
        path = tmp_path / "linkage.csv"
        write_linkage(path, linkage_of([1]))
        assert path.read_text().splitlines()[0] == "db,record,entity,max_prob"

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "linkage.csv"
        path.write_text("db,record,who,max_prob\n1,1,1,1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_linkage(path)

    def test_rejects_out_of_sequence_rows(self, tmp_path):
        path = tmp_path / "linkage.csv"
        path.write_text(
            "db,record,entity,max_prob\n1,1,1,1.0\n1,3,1,1.0\n"
        )
        with pytest.raises(ValueError, match="sequence"):
            read_linkage(path)

    def test_reads_skipped_databases_as_empty(self, tmp_path):
        path = tmp_path / "linkage.csv"
        path.write_text("db,record,entity,max_prob\n2,1,1,1.0\n")
        assert read_linkage(path).db_sizes == (0, 1)

    @pytest.mark.parametrize(
        "written, read",
        [((0, 2, 0, 1), (0, 2, 0, 1)), ((0, 0, 3), (0, 0, 3)), ((2, 0), (2,))],
    )
    def test_empty_databases_round_trip(self, tmp_path, written, read):
        """An empty database has no row, so only a trailing one is lost."""
        n = sum(written)
        path = tmp_path / "linkage.csv"
        write_linkage(path, Linkage(written, np.arange(1, n + 1), np.ones(n)))
        loaded = read_linkage(path)
        assert loaded.db_sizes == read
        np.testing.assert_array_equal(loaded.map_entity, np.arange(1, n + 1))

    @pytest.mark.parametrize(
        "rows",
        [
            "1,2,1,1.0\n",  # first record id other than 1
            "1,1,1,1.0\n2,2,1,1.0\n",  # a database starting past record 1
            "1,1,1,1.0\n2,1,1,1.0\n1,2,1,1.0\n",  # database number goes back
            "1,1,1,1.0\n1,1,1,1.0\n",  # record repeated
            "0,1,1,1.0\n",  # database ids are 1-based
        ],
    )
    def test_rejects_rows_out_of_order(self, tmp_path, rows):
        path = tmp_path / "linkage.csv"
        path.write_text("db,record,entity,max_prob\n" + rows)
        with pytest.raises(ValueError, match="sequence"):
            read_linkage(path)

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "linkage.csv"
        path.write_text("db,record,entity,max_prob\n1,1,1\n")
        with pytest.raises(ValueError, match="malformed"):
            read_linkage(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,1,99999999999999999999,1.0", "column 'entity'"),  # beyond int64
            ("1,1,1.5,1.0", "column 'entity'"),
            ("1,1,1,abc", "column 'max_prob'"),
            ("x,1,1,1.0", "malformed row"),
            ("1,1.0,1,1.0", "malformed row"),
        ],
        ids=["overflow", "fraction", "text", "text_db", "fraction_record"],
    )
    def test_rejects_unparsable_cells(self, tmp_path, row, message):
        path = tmp_path / "linkage.csv"
        path.write_text(f"db,record,entity,max_prob\n{row}\n")
        with pytest.raises(ValueError, match=f"linkage.csv: {message}"):
            read_linkage(path)


class TestGroundTruthFile:
    def test_read_back_zero_based(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text(
            "db,record,entity\n1,1,3\n1,2,1\n2,1,3\n"
        )
        truth = read_ground_truth(path)
        assert truth.db_sizes == (2, 1)
        np.testing.assert_array_equal(truth.assignments, [2, 0, 2])
        assert truth.schema is None

    def test_empty_first_database_round_trip(self, tmp_path):
        _, truth = sample_dataset(
            GenConfig(entity_count=2, db_sizes=[0, 3], cardinalities=[2],
                      distortion=0.1, seed=0)
        )
        path = tmp_path / "truth.csv"
        write_ground_truth(truth, path)
        back = read_ground_truth(path)
        assert back.db_sizes == (0, 3)
        np.testing.assert_array_equal(back.assignments, truth.assignments)

    def test_rejects_zero_entity_id(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("db,record,entity\n1,1,0\n")
        with pytest.raises(ValueError, match="1-based"):
            read_ground_truth(path)


def test_score_json_content(tmp_path):
    """score.json as ``vblink eval`` writes it, through the package's one
    JSON writer."""
    linkage = tmp_path / "linkage.csv"
    write_linkage(linkage, linkage_of([1, 1, 1, 2, 2, 2]))
    truth = tmp_path / "truth.csv"
    write_ground_truth(truth_of([0, 0, 0, 1, 2, 3]), truth)
    assert main(["eval", str(linkage), str(truth), "--out", str(tmp_path)]) == 0
    path = tmp_path / "score.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload == {
        "pairwise_precision": 0.5,
        "pairwise_recall": 1.0,
        "pairwise_f1": 2 / 3,
        "true_entity_count": 4,
        "estimated_entity_count": 2,
    }
    assert path.read_text(encoding="utf-8").endswith("\n")
