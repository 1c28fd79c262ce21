"""Command-line interface: ``synth``, ``fit``, ``eval``, ``oracle-check``.

Every run writes ``manifest.json`` into the output directory echoing the
fully resolved configuration (no timestamps), so identical invocations
produce byte-identical files and the manifest suffices to reproduce a run.

Exit codes: 0 success (fit: converged), 2 usage or input error,
3 numerical failure, 4 fit stopped at the sweep limit without converging,
5 the variational bound exceeded the exact evidence.
"""

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .corpus import (
    load_databases,
    read_schema_file,
    write_databases,
    write_schema_file,
)
from .engine import HyperParams, NumericalFailureError, fit, save_state
from .evaluate import (
    map_linkage,
    pairwise_metrics,
    read_ground_truth,
    read_linkage,
    write_linkage,
    write_score_json,
)
from .genmodel import GenConfig, resolve_alpha, sample_dataset, write_ground_truth
from .oracle import exact_posterior

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4
EXIT_BOUND_VIOLATION = 5

BOUND_SLACK = 1e-9


def _read_config_file(path):
    """Plain ``key=value`` lines; blank lines and ``#`` comments ignored.
    Keys use the long flag spelling without the dashes (e.g. ``db-sizes``)."""
    settings = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno} is not key=value")
            key, _, value = line.partition("=")
            settings[key.strip()] = value.strip()
    return settings


class _Resolver:
    """Option precedence: explicit flag, then config-file entry, then default."""

    def __init__(self, args):
        self.args = args
        config_path = getattr(args, "config", None)
        self.config = _read_config_file(config_path) if config_path else {}

    def get(self, name, cast, default=None):
        value = getattr(self.args, name)
        key = name.replace("_", "-")
        if value is None and key in self.config:
            value = cast(self.config[key])
        return default if value is None else value

    def require(self, name, cast):
        value = self.get(name, cast)
        if value is None:
            raise ValueError(f"--{name.replace('_', '-')} is required")
        return value


def _parse_sizes(text):
    try:
        sizes = [int(tok) for tok in str(text).split(",")]
    except ValueError:
        raise ValueError(f"cannot parse database sizes from {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("database sizes must be positive integers")
    return sizes


def _read_alpha_file(path):
    """One comma-separated concentration vector per line, one line per field."""
    vectors = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vectors.append(np.asarray([float(tok) for tok in line.split(",")]))
    return vectors


def _alpha_vectors(alpha, alpha_file, cardinalities):
    if alpha is not None and alpha_file is not None:
        raise ValueError("give either --alpha or --alpha-file, not both")
    if alpha_file is not None:
        return resolve_alpha(_read_alpha_file(alpha_file), cardinalities)
    return resolve_alpha(0.1 if alpha is None else alpha, cardinalities)


def _ensure_out(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _write_manifest(out_dir, payload):
    payload = dict(payload, version=__version__)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_cells(cells):
    """``cells`` as one CSV line without its terminator, quoted the way
    ``csv.writer`` quotes them."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(cells)
    return buffer.getvalue()[: -len("\r\n")]


def _write_lambda_csv(path, state, schema):
    """One ``entity,field,value,lambda`` line per entity, field and value,
    built one entity at a time; each field name and value is quoted once."""
    labels = [
        [f",{_csv_cells([name, schema.value(f, v)])}," for v in range(lam_f.shape[1])]
        for f, (name, lam_f) in enumerate(zip(schema.field_names, state.lam))
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("entity,field,value,lambda\r\n")
        for k in range(state.entity_count):
            fh.write(
                "".join(
                    [
                        f"{k + 1}{label}{x!r}\r\n"
                        for labels_f, lam_f in zip(labels, state.lam)
                        for label, x in zip(labels_f, lam_f[k].tolist())
                    ]
                )
            )


def _load_corpus(args, resolver):
    schema_path = resolver.get("schema", str)
    schema = read_schema_file(schema_path) if schema_path else None
    return load_databases(args.databases, schema=schema), schema_path


def _fit_options(resolver):
    opts = {
        "k": resolver.get("k", int),
        "alpha": resolver.get("alpha", float),
        "alpha_file": resolver.get("alpha_file", str),
        "max_sweeps": resolver.get("max_sweeps", int, 1000),
        "tol": resolver.get("tol", float, 1e-8),
        "seed": resolver.get("seed", int, 0),
        "workers": resolver.get("workers", int, 1),
    }
    if opts["max_sweeps"] < 1:
        raise ValueError("--max-sweeps must be >= 1")
    if opts["tol"] <= 0.0:
        raise ValueError("--tol must be positive")
    if opts["workers"] < 1:
        raise ValueError("--workers must be >= 1")
    return opts


def _fit_setup(args, resolver):
    """Options, corpus and hyperparameters shared by ``fit`` and
    ``oracle-check``, plus the manifest entries that echo them."""
    opts = _fit_options(resolver)
    corpus, schema_path = _load_corpus(args, resolver)
    k = opts["k"] if opts["k"] is not None else corpus.total_records
    hp = HyperParams(
        entity_count=k,
        alpha=_alpha_vectors(
            opts["alpha"], opts["alpha_file"], corpus.schema.cardinalities
        ),
    )
    manifest = {
        "databases": list(args.databases),
        "schema": schema_path,
        "k": k,
        "alpha": opts["alpha"] if opts["alpha_file"] is None else None,
        "alpha_file": opts["alpha_file"],
        "max_sweeps": opts["max_sweeps"],
        "tol": opts["tol"],
        "seed": opts["seed"],
        "workers": opts["workers"],
    }
    return opts, corpus, hp, manifest


def cmd_synth(args):
    resolver = _Resolver(args)
    out_dir = resolver.require("out", str)
    entity_count = resolver.require("k", int)
    db_sizes = _parse_sizes(resolver.require("db_sizes", str))
    fields = resolver.require("fields", int)
    cardinality = resolver.require("cardinality", int)
    distortion = resolver.get("distortion", float)
    alpha = resolver.get("alpha", float)
    small_cluster_max = resolver.get("small_cluster_max", int)
    seed = resolver.get("seed", int, 0)

    config = GenConfig(
        entity_count=entity_count,
        db_sizes=db_sizes,
        cardinalities=[cardinality] * fields,
        distortion=distortion,
        dirichlet_alpha=alpha,
        small_cluster_max=small_cluster_max,
        seed=seed,
    )
    corpus, truth = sample_dataset(config)

    _ensure_out(out_dir)
    db_names = [f"db{d}.csv" for d in range(1, len(db_sizes) + 1)]
    write_databases(corpus, [os.path.join(out_dir, name) for name in db_names])
    write_schema_file(corpus.schema, os.path.join(out_dir, "schema.txt"))
    write_ground_truth(truth, os.path.join(out_dir, "truth.csv"))
    _write_manifest(
        out_dir,
        {
            "command": "synth",
            "k": entity_count,
            "db_sizes": db_sizes,
            "fields": fields,
            "cardinality": cardinality,
            "distortion": distortion,
            "alpha": alpha,
            "small_cluster_max": small_cluster_max,
            "seed": seed,
            "outputs": db_names
            + ["schema.txt", "truth.csv", "truth_latent.csv", "manifest.json"],
        },
    )
    return EXIT_OK


def cmd_fit(args):
    resolver = _Resolver(args)
    out_dir = resolver.require("out", str)
    opts, corpus, hp, manifest = _fit_setup(args, resolver)

    _ensure_out(out_dir)
    trace_path = os.path.join(out_dir, "trace.csv")
    with open(trace_path, "w", buffering=1, encoding="utf-8") as trace:
        trace.write("sweep,elbo\n")

        def on_sweep(sweep, value, _state):
            trace.write(f"{sweep},{value!r}\n")

        state, report = fit(
            corpus,
            hp,
            max_sweeps=opts["max_sweeps"],
            rel_tol=opts["tol"],
            seed=opts["seed"],
            workers=opts["workers"],
            on_sweep=on_sweep,
        )

    write_linkage(
        os.path.join(out_dir, "linkage.csv"), map_linkage(state, corpus.db_sizes)
    )
    save_state(os.path.join(out_dir, "state.npz"), state, corpus, hp)
    _write_lambda_csv(os.path.join(out_dir, "lambda.csv"), state, corpus.schema)
    _write_manifest(
        out_dir,
        {
            "command": "fit",
            **manifest,
            "outputs": [
                "trace.csv",
                "linkage.csv",
                "state.npz",
                "lambda.csv",
                "manifest.json",
            ],
        },
    )
    if report.elbo_decreases:
        print(
            f"warning: the ELBO fell beyond roundoff in "
            f"{report.elbo_decreases} of {report.sweeps_run} sweeps",
            file=sys.stderr,
        )
    if not report.converged:
        print(
            f"stopped after {report.sweeps_run} sweeps without meeting "
            f"the tolerance",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_eval(args):
    resolver = _Resolver(args)
    out_dir = resolver.require("out", str)
    linkage = read_linkage(args.linkage)
    truth = read_ground_truth(args.truth)
    score = pairwise_metrics(linkage, truth)

    _ensure_out(out_dir)
    write_score_json(os.path.join(out_dir, "score.json"), score)
    _write_manifest(
        out_dir,
        {
            "command": "eval",
            "linkage": args.linkage,
            "truth": args.truth,
            "outputs": ["score.json", "manifest.json"],
        },
    )
    for name, value in asdict(score).items():
        print(f"{name}={value}")
    return EXIT_OK


def cmd_oracle_check(args):
    resolver = _Resolver(args)
    out_dir = resolver.require("out", str)
    opts, corpus, hp, manifest = _fit_setup(args, resolver)

    exact = exact_posterior(corpus, hp, workers=opts["workers"])
    state, report = fit(
        corpus,
        hp,
        max_sweeps=opts["max_sweeps"],
        rel_tol=opts["tol"],
        seed=opts["seed"],
        workers=opts["workers"],
    )
    final_elbo = report.elbo_trace[-1]
    gap = exact.log_evidence - final_elbo

    phi = state.phi[state.rows]
    max_discrepancy = float(
        np.max(np.abs(np.triu(exact.cocluster - phi @ phi.T, 1)), initial=0.0)
    )

    report_payload = {
        "exact_log_evidence": exact.log_evidence,
        "final_elbo": final_elbo,
        "gap": gap,
        "max_cocluster_discrepancy": max_discrepancy,
    }
    _ensure_out(out_dir)
    with open(
        os.path.join(out_dir, "oracle_report.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(report_payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(
        out_dir,
        {
            "command": "oracle-check",
            **manifest,
            "outputs": ["oracle_report.json", "manifest.json"],
        },
    )
    for name, value in report_payload.items():
        print(f"{name}={value}")
    if gap < -BOUND_SLACK:
        print(
            f"bound violated: ELBO exceeds the exact evidence by {-gap}",
            file=sys.stderr,
        )
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def _add_fit_flags(parser):
    parser.add_argument("databases", nargs="+", help="database CSV files")
    parser.add_argument("--schema", help="schema file fixing the value dictionaries")
    parser.add_argument("--k", type=int, help="latent entities (default: one per record)")
    parser.add_argument("--alpha", type=float, help="symmetric Dirichlet concentration (default 0.1)")
    parser.add_argument("--alpha-file", dest="alpha_file", help="per-field concentration vectors, one line per field")
    parser.add_argument("--max-sweeps", dest="max_sweeps", type=int, help="sweep limit (default 1000)")
    parser.add_argument("--tol", type=float, help="relative ELBO change for convergence (default 1e-8)")
    parser.add_argument("--seed", type=int, help="initialization seed (default 0)")
    parser.add_argument("--workers", type=int, help="worker threads (default 1; results identical)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--config", help="key=value defaults file; flags win")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vblink",
        description="Entity resolution across categorical databases by "
        "variational inference over a latent-individual model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="sample a synthetic instance with known truth")
    synth.add_argument("--k", type=int, help="number of latent entities")
    synth.add_argument("--db-sizes", dest="db_sizes", help="records per database, e.g. 300,300")
    synth.add_argument("--fields", type=int, help="number of categorical fields")
    synth.add_argument("--cardinality", type=int, help="values per field")
    synth.add_argument("--distortion", type=float, help="per-field corruption probability")
    synth.add_argument("--alpha", type=float, help="Dirichlet noise mode (instead of --distortion)")
    synth.add_argument("--small-cluster-max", dest="small_cluster_max", type=int, help="cap on records per entity; forces every entity to appear")
    synth.add_argument("--seed", type=int, help="sampling seed (default 0)")
    synth.add_argument("--out", help="output directory")
    synth.add_argument("--config", help="key=value defaults file; flags win")
    synth.set_defaults(func=cmd_synth)

    fit_parser = sub.add_parser("fit", help="fit the variational model to database CSVs")
    _add_fit_flags(fit_parser)
    fit_parser.set_defaults(func=cmd_fit)

    eval_parser = sub.add_parser("eval", help="score a linkage file against ground truth")
    eval_parser.add_argument("linkage", help="linkage CSV from fit")
    eval_parser.add_argument("truth", help="ground-truth db,record,entity CSV")
    eval_parser.add_argument("--out", help="output directory")
    eval_parser.add_argument("--config", help="key=value defaults file; flags win")
    eval_parser.set_defaults(func=cmd_eval)

    oracle_parser = sub.add_parser(
        "oracle-check",
        help="compare the fitted bound against exact enumeration (tiny instances)",
    )
    _add_fit_flags(oracle_parser)
    oracle_parser.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print(
            "error: out of memory: the distinct records x K responsibilities "
            "did not fit; try a smaller --k",
            file=sys.stderr,
        )
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
