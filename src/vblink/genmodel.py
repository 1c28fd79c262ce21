"""Synthetic corpus sampling with ground truth.

Records are noisy copies of latent entities: each entity carries one
categorical noise distribution per field, peaked at its true latent value,
and every observed cell is an independent draw from the distribution of the
entity that owns the record.

Two noise parameterizations are supported:

* ``peaked(eps)`` -- the true value keeps mass ``1 - eps`` and the remaining
  ``eps`` is spread uniformly over the other values.  This gives recovery
  experiments a controllable distortion rate.
* ``dirichlet(a)`` -- each per-entity, per-field distribution is drawn from
  a Dirichlet with concentration ``a``; the true value is wherever the
  sampled distribution puts its plurality.

Entity-to-record assignment is either iid uniform over the ``K`` entities or,
in small-cluster mode, a permutation-based allocation in which every entity
receives between 1 and ``small_cluster_max`` records.

All sampling is driven by one seeded generator; draws happen in a fixed,
documented order (noise, then assignments, then cell values field by field),
so a config is a complete recipe for its output.  The truth is saved as a
record table and an entity table of latent values, both written by
:mod:`vblink.corpus`; ``vblink fit`` writes its estimate of the latent
values through the same entity-table writer.
"""

import os
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Schema, write_entity_table, write_record_table


@dataclass(eq=False)
class GroundTruth:
    """What the generator knows: who produced each record and how.

    ``assignments[n]`` is the 0-based entity index of record ``n`` (flat,
    database-stacked order); ``latent_values[k, f]`` the 0-based code of
    entity ``k``'s true value in field ``f``; ``noise_distributions[f][k, v]``
    the probability that entity ``k`` emits value ``v`` in field ``f``.
    The latter two are ``None`` when read back from files that omit them.
    """

    schema: Schema
    db_sizes: tuple
    assignments: np.ndarray
    latent_values: np.ndarray | None = None
    noise_distributions: list | None = None

    @property
    def total_records(self):
        return int(self.assignments.shape[0])


@dataclass
class GenConfig:
    """Recipe for one synthetic dataset.

    Exactly one of ``distortion`` (peaked mode) and ``dirichlet_alpha``
    (Dirichlet mode) must be set.  ``small_cluster_max`` switches assignment
    to the capped per-entity allocation; it requires
    ``K <= total records <= K * small_cluster_max``.
    """

    entity_count: int
    db_sizes: list
    cardinalities: list
    distortion: float | None = None
    dirichlet_alpha: object = None  # scalar or per-field vectors
    small_cluster_max: int | None = None
    seed: int = 0

    def validate(self):
        if self.entity_count < 1:
            raise ValueError("entity_count must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.db_sizes or any(int(s) < 0 for s in self.db_sizes):
            raise ValueError("db_sizes must be a nonempty list of nonnegative sizes")
        if not self.cardinalities:
            raise ValueError("at least one field is required")
        if any(int(v) < 1 for v in self.cardinalities):
            raise ValueError("cardinalities must be positive")
        if (self.distortion is None) == (self.dirichlet_alpha is None):
            raise ValueError("set exactly one of distortion and dirichlet_alpha")
        if self.distortion is not None:
            # A one-valued field has nothing to corrupt into: only 0 is valid.
            for v_f in self.cardinalities:
                if v_f == 1 and self.distortion != 0.0:
                    raise ValueError("distortion must be 0 for a 1-valued field")
                if v_f > 1 and not 0.0 <= self.distortion < 1.0 - 1.0 / v_f:
                    raise ValueError(
                        f"distortion must lie in [0, 1 - 1/{v_f}) for a "
                        f"{v_f}-valued field"
                    )
        if self.dirichlet_alpha is not None:
            alphas = resolve_alpha(self.dirichlet_alpha, self.cardinalities)
            for f, a_f in enumerate(alphas):
                if not np.all(np.isfinite(a_f) & (a_f > 0.0)):
                    raise ValueError("dirichlet_alpha entries must be finite and positive")
                with np.errstate(over="ignore"):  # an infinite sum is refused below
                    total = a_f.sum()
                # numpy's Dirichlet draws are all zero once the sum overflows
                if not np.isfinite(total):
                    raise ValueError(
                        f"dirichlet_alpha {float(a_f.max())!r} is too large: the "
                        f"{a_f.size} concentrations of field {f} sum past the "
                        "largest float"
                    )
        if self.small_cluster_max is not None:
            m = int(self.small_cluster_max)
            n = sum(int(s) for s in self.db_sizes)
            if m < 1:
                raise ValueError("small_cluster_max must be >= 1")
            if not self.entity_count <= n <= self.entity_count * m:
                raise ValueError(
                    f"small-cluster mode needs K <= N <= K*m, got K="
                    f"{self.entity_count}, N={n}, m={m}"
                )


def resolve_alpha(alpha, cardinalities):
    """Broadcast a scalar concentration, or pass through per-field vectors."""
    if np.isscalar(alpha) or (hasattr(alpha, "ndim") and alpha.ndim == 0):
        return [np.full(v_f, float(alpha)) for v_f in cardinalities]
    vectors = [np.asarray(a, dtype=np.float64) for a in alpha]
    if len(vectors) != len(cardinalities) or any(
        a.shape != (v_f,) for a, v_f in zip(vectors, cardinalities)
    ):
        raise ValueError("per-field alpha vectors must match the cardinalities")
    return vectors


def default_schema(cardinalities):
    """Generated schema: fields ``f1..fF``, values ``v1..vV`` per field."""
    return Schema(
        field_names=tuple(f"f{f + 1}" for f in range(len(cardinalities))),
        field_values=tuple(
            tuple(f"v{v + 1}" for v in range(v_f)) for v_f in cardinalities
        ),
    )


def _sample_noise(rng, config):
    """Per-field (K, V_f) noise matrices plus the (K, F) latent values."""
    k = config.entity_count
    cards = [int(v) for v in config.cardinalities]
    latent = np.empty((k, len(cards)), dtype=np.int64)
    betas = []
    if config.distortion is not None:
        eps = float(config.distortion)
        for f, v_f in enumerate(cards):
            vstar = rng.integers(0, v_f, size=k)
            beta = np.full((k, v_f), eps / (v_f - 1) if v_f > 1 else 0.0)
            beta[np.arange(k), vstar] = 1.0 - eps
            latent[:, f] = vstar
            betas.append(beta)
    else:
        for f, (v_f, a_f) in enumerate(
            zip(cards, resolve_alpha(config.dirichlet_alpha, cards))
        ):
            beta = rng.dirichlet(a_f, size=k)
            latent[:, f] = np.argmax(beta, axis=1)
            betas.append(beta)
    return betas, latent


def _sample_assignments(rng, config, n):
    k = config.entity_count
    if config.small_cluster_max is None:
        return rng.integers(0, k, size=n)
    m = int(config.small_cluster_max)
    # Every entity holds one slot; the N-K remaining records land on distinct
    # spare slots (m-1 per entity), so loads stay in [1, m] and sum to N.
    sizes = np.ones(k, dtype=np.int64)
    extra = n - k
    if extra > 0:
        slots = rng.choice(k * (m - 1), size=extra, replace=False)
        sizes += np.bincount(slots // (m - 1), minlength=k)
    labels = np.repeat(np.arange(k), sizes)
    return rng.permutation(labels)


def sample_dataset(config):
    """Draw one (Corpus, GroundTruth) pair; deterministic given the seed.

    A cell of field f is drawn by inverting its record's noise row: with
    one uniform u per record and the row's running sums c_0 <= c_1 <= ...,
    its code is the number of sums at or below u, at most V_f - 1.  The
    sums are one (V_f, K) table per field, each entity's added in value
    order, and the count is taken one value at a time by gathering that
    value's row of the table by the records' entities, so a field holds
    O(N) memory whatever V_f is.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    schema = default_schema(config.cardinalities)
    db_sizes = tuple(int(s) for s in config.db_sizes)
    n = sum(db_sizes)

    betas, latent = _sample_noise(rng, config)
    z = _sample_assignments(rng, config, n)

    values = np.empty((n, schema.field_count), dtype=np.int32)
    for f, beta in enumerate(betas):
        u = rng.random(n)
        count = np.zeros(n, dtype=np.int32)
        for cdf_v in np.ascontiguousarray(np.cumsum(beta, axis=1).T):
            count += u >= cdf_v[z]
        values[:, f] = np.minimum(count, beta.shape[1] - 1)

    corpus = Corpus(schema=schema, db_sizes=db_sizes, values=values)
    truth = GroundTruth(
        schema=schema,
        db_sizes=db_sizes,
        assignments=z,
        latent_values=latent,
        noise_distributions=betas,
    )
    return corpus, truth


def latent_path_for(path):
    """Companion latent-values file name: ``truth.csv -> truth_latent.csv``."""
    stem, ext = os.path.splitext(path)
    return f"{stem}_latent{ext}"


def write_ground_truth(truth, path):
    """Write the assignments as the record table ``db,record,entity`` and,
    when known, the latent values as the entity table ``entity,field,value``
    in the :func:`latent_path_for` file; ids are 1-based, attribute values
    are raw strings."""
    write_record_table(path, truth.db_sizes, {"entity": truth.assignments + 1})
    if truth.latent_values is not None:
        write_entity_table(
            latent_path_for(path),
            truth.schema,
            np.arange(1, len(truth.latent_values) + 1),
            truth.latent_values,
        )
