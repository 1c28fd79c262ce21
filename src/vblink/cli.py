"""Command-line interface: ``synth``, ``fit``, ``eval``, ``oracle-check``.

Each option takes its value from its flag, else from the ``--config``
file, else from its default.  A config entry is parsed by the flag's own
type, so a bad config value is reported exactly like the same bad flag.
Every run writes ``manifest.json`` into the output directory echoing the
options that ran, with the defaults, ``k`` and the alpha actually used
filled in (no timestamps), so identical invocations produce byte-identical
files and the manifest suffices to reproduce a run.

Exit codes: 0 success (fit: converged), 2 usage or input error,
3 numerical failure, 4 fit stopped at the sweep limit without converging,
5 the variational bound exceeded the exact evidence.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict
from itertools import chain

import numpy as np

from . import __version__
from .corpus import (
    load_databases,
    quoted_labels,
    read_schema_file,
    write_databases,
    write_schema_file,
    write_table,
)
from .engine import (
    HyperParams,
    NumericalFailureError,
    _check_fit_options,
    fit,
    save_state,
)
from .evaluate import (
    map_linkage,
    pairwise_metrics,
    read_ground_truth,
    read_linkage,
    write_linkage,
)
from .genmodel import GenConfig, resolve_alpha, sample_dataset, write_ground_truth
from .oracle import exact_posterior

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4
EXIT_BOUND_VIOLATION = 5

BOUND_SLACK = 1e-9

# The symmetric concentration of fit and oracle-check when neither --alpha
# nor --alpha-file is given.  --alpha itself defaults to None, which is how
# a clash with --alpha-file shows.
DEFAULT_ALPHA = 0.1

# Parsed attributes that are not part of a run's configuration.
_NOT_ECHOED = ("func", "subparser", "config", "out")


def _config_defaults(parser, path):
    """The entries of a ``key=value`` file that name an option of
    ``parser``, keyed by the option's ``dest``.  Blank lines and ``#``
    comments are skipped.  Keys use the long flag spelling without the
    dashes (e.g. ``db-sizes``); other keys are ignored, so a file sets no
    positional and cannot replace the handler."""
    defaults = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno} is not key=value")
            key, _, value = line.partition("=")
            action = parser._option_string_actions.get("--" + key.strip())
            if action is not None and action.dest not in ("help", "config"):
                defaults[action.dest] = value.strip()
    return defaults


def _db_sizes(text):
    """``--db-sizes``: comma-separated record counts; GenConfig checks them."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"database sizes must be integers, got {text!r}"
        ) from None


def _require(args, *names):
    """Options with no default that a command needs.  argparse's
    ``required`` would refuse one that the config file supplies."""
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required")


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


def _alpha_vectors(args, cardinalities):
    """The per-field concentrations.  A defaulted alpha is written back into
    ``args``, so the manifest records the value used."""
    if args.alpha_file is not None:
        if args.alpha is not None:
            raise ValueError("give either --alpha or --alpha-file, not both")
        return resolve_alpha(_read_alpha_file(args.alpha_file), cardinalities)
    if args.alpha is None:
        args.alpha = DEFAULT_ALPHA
    return resolve_alpha(args.alpha, cardinalities)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(args, outputs):
    """Every parsed option of the run, the outputs and the package version."""
    manifest = {
        key: value for key, value in vars(args).items() if key not in _NOT_ECHOED
    }
    _write_json(
        os.path.join(args.out, "manifest.json"),
        dict(manifest, outputs=outputs, version=__version__),
    )


def _write_lambda_csv(path, state, schema):
    """One ``entity,field,value,lambda`` line per entity, field and value."""
    labels = quoted_labels(schema)
    lines = chain.from_iterable(
        [
            f"{k},{label},{x!r}"
            for labels_f, lam_kf in zip(labels, lam_k)
            for label, x in zip(labels_f, lam_kf.tolist())
        ]
        for k, lam_k in enumerate(zip(*state.lam), 1)
    )
    write_table(path, ["entity", "field", "value", "lambda"], lines)


def _fit_setup(args):
    """Check the options, then load the corpus and build the hyperparameters
    shared by ``fit`` and ``oracle-check``.  The resolved ``k`` and alpha
    are written back into ``args``, which the manifest echoes."""
    _require(args, "out")
    _check_fit_options(args.max_sweeps, args.tol, args.workers)
    schema = read_schema_file(args.schema) if args.schema else None
    corpus = load_databases(args.databases, schema=schema)
    if args.k is None:
        args.k = corpus.total_records
    hp = HyperParams(
        entity_count=args.k,
        alpha=_alpha_vectors(args, corpus.schema.cardinalities),
    )
    return corpus, hp


def cmd_synth(args):
    _require(args, "out", "k", "db_sizes", "fields", "cardinality")
    config = GenConfig(
        entity_count=args.k,
        db_sizes=args.db_sizes,
        cardinalities=[args.cardinality] * args.fields,
        distortion=args.distortion,
        dirichlet_alpha=args.alpha,
        small_cluster_max=args.small_cluster_max,
        seed=args.seed,
    )
    corpus, truth = sample_dataset(config)

    os.makedirs(args.out, exist_ok=True)
    db_names = [f"db{d}.csv" for d in range(1, len(args.db_sizes) + 1)]
    write_databases(corpus, [os.path.join(args.out, name) for name in db_names])
    write_schema_file(corpus.schema, os.path.join(args.out, "schema.txt"))
    write_ground_truth(truth, os.path.join(args.out, "truth.csv"))
    _write_manifest(
        args,
        db_names + ["schema.txt", "truth.csv", "truth_latent.csv", "manifest.json"],
    )
    return EXIT_OK


def cmd_fit(args):
    corpus, hp = _fit_setup(args)

    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.csv")
    with open(trace_path, "w", buffering=1, encoding="utf-8") as trace:
        trace.write("sweep,elbo\n")

        def on_sweep(sweep, value, _state):
            trace.write(f"{sweep},{value!r}\n")

        state, report = fit(
            corpus,
            hp,
            max_sweeps=args.max_sweeps,
            rel_tol=args.tol,
            seed=args.seed,
            workers=args.workers,
            on_sweep=on_sweep,
        )

    write_linkage(
        os.path.join(args.out, "linkage.csv"), map_linkage(state, corpus.db_sizes)
    )
    save_state(os.path.join(args.out, "state.npz"), state.lam, corpus, hp)
    _write_lambda_csv(os.path.join(args.out, "lambda.csv"), state, corpus.schema)
    _write_manifest(
        args,
        [
            "trace.csv",
            "linkage.csv",
            "state.npz",
            "lambda.csv",
            "manifest.json",
        ],
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
    _require(args, "out")
    linkage = read_linkage(args.linkage)
    truth = read_ground_truth(args.truth)
    score = pairwise_metrics(linkage, truth)

    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "score.json"), asdict(score))
    _write_manifest(args, ["score.json", "manifest.json"])
    for name, value in asdict(score).items():
        print(f"{name}={value}")
    return EXIT_OK


def cmd_oracle_check(args):
    corpus, hp = _fit_setup(args)

    exact = exact_posterior(corpus, hp, workers=args.workers)
    state, report = fit(
        corpus,
        hp,
        max_sweeps=args.max_sweeps,
        rel_tol=args.tol,
        seed=args.seed,
        workers=args.workers,
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
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "oracle_report.json"), report_payload)
    _write_manifest(args, ["oracle_report.json", "manifest.json"])
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
    parser.add_argument("--alpha", type=float, help=f"symmetric Dirichlet concentration (default {DEFAULT_ALPHA})")
    parser.add_argument("--alpha-file", dest="alpha_file", help="per-field concentration vectors, one line per field")
    parser.add_argument("--max-sweeps", dest="max_sweeps", type=int, default=1000, help="sweep limit (default %(default)s)")
    parser.add_argument("--tol", type=float, default=1e-8, help="relative ELBO change for convergence (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0, help="initialization seed (default %(default)s)")
    parser.add_argument("--workers", type=int, default=1, help="worker threads (default %(default)s; results identical)")
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
    synth.add_argument("--db-sizes", dest="db_sizes", type=_db_sizes, help="records per database, e.g. 300,300")
    synth.add_argument("--fields", type=int, help="number of categorical fields")
    synth.add_argument("--cardinality", type=int, help="values per field")
    synth.add_argument("--distortion", type=float, help="per-field corruption probability")
    synth.add_argument("--alpha", type=float, help="Dirichlet noise mode (instead of --distortion)")
    synth.add_argument("--small-cluster-max", dest="small_cluster_max", type=int, help="cap on records per entity; forces every entity to appear")
    synth.add_argument("--seed", type=int, default=0, help="sampling seed (default %(default)s)")
    synth.add_argument("--out", help="output directory")
    synth.add_argument("--config", help="key=value defaults file; flags win")
    synth.set_defaults(func=cmd_synth, subparser=synth)

    fit_parser = sub.add_parser("fit", help="fit the variational model to database CSVs")
    _add_fit_flags(fit_parser)
    fit_parser.set_defaults(func=cmd_fit, subparser=fit_parser)

    eval_parser = sub.add_parser("eval", help="score a linkage file against ground truth")
    eval_parser.add_argument("linkage", help="linkage CSV from fit")
    eval_parser.add_argument("truth", help="ground-truth db,record,entity CSV")
    eval_parser.add_argument("--out", help="output directory")
    eval_parser.add_argument("--config", help="key=value defaults file; flags win")
    eval_parser.set_defaults(func=cmd_eval, subparser=eval_parser)

    oracle_parser = sub.add_parser(
        "oracle-check",
        help="compare the fitted bound against exact enumeration (tiny instances)",
    )
    _add_fit_flags(oracle_parser)
    oracle_parser.set_defaults(func=cmd_oracle_check, subparser=oracle_parser)
    return parser


def main(argv=None):
    # A fresh parser per call, so one call's config defaults never reach
    # the next.
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The config entries become the subcommand's defaults, and argparse
            # parses them with each flag's type; explicit flags still win.
            args.subparser.set_defaults(**_config_defaults(args.subparser, args.config))
            args = parser.parse_args(argv)
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
