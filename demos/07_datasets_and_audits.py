"""
Datasets, sidecar schemas, and audit reports
============================================

Everything in the earlier demos also runs from delimited text files.
A dataset is a headered CSV whose last column (by default) carries the
feedback; ordinal and nominal columns declare their value sets in a
sidecar schema file so nothing is silently inferred.  The same command
layer the ``minconsist`` executable exposes is driven here in-process:
train writes a model file, audit replays the per-case inconsistencies,
and the totals match to the last bit.
"""

import json
import tempfile
from pathlib import Path

from minconsist import load_dataset, load_model
from minconsist.cli import main

with tempfile.TemporaryDirectory(prefix="minconsist-demo-") as tmp:
    workdir = Path(tmp)

    # A small regression table and an ordinal classification table.
    tube_csv = workdir / "tube.csv"
    tube_csv.write_text("x,y\n-2,-3.9\n-1,-2.1\n0,0.2\n1,1.9\n2,4.1\n")

    shirts_csv = workdir / "shirts.csv"
    shirts_csv.write_text(
        "size,fit,returned\n"
        "small,slim,0\nsmall,roomy,0\nmedium,slim,0\nmedium,roomy,1\n"
        "large,slim,1\nlarge,roomy,1\n"
    )
    # The same file can be read under different declarations.  An ordinal
    # declaration turns tokens into ranks (what the tree learner wants); a
    # nominal declaration keeps them as symbols (what naive Bayes wants).
    ordinal_schema = workdir / "shirts.ordinal.json"
    ordinal_schema.write_text(json.dumps({
        "columns": {
            "size": {"kind": "ordinal", "levels": ["small", "medium", "large"]},
            "fit": {"kind": "nominal", "symbols": ["slim", "roomy"]},
        }
    }))
    nominal_schema = workdir / "shirts.nominal.json"
    nominal_schema.write_text(json.dumps({
        "columns": {
            "size": {"kind": "nominal", "symbols": ["small", "medium", "large"]},
            "fit": {"kind": "nominal", "symbols": ["slim", "roomy"]},
        }
    }))

    ds = load_dataset(shirts_csv, schema_path=ordinal_schema)
    print("shirts dataset: m =", ds.training.m, " n =", ds.training.n)
    print("first case under the ordinal declaration:", ds.training.cases[0].x.values,
          "->", ds.training.cases[0].y)
    print()

    # Train a regression model from the CSV, exactly as the executable would.
    model_path = workdir / "tube-model.json"
    print("$ minconsist train --learner svr --data tube.csv "
          "--epsilon 0.1 --lambda 0.01 --out tube-model.json")
    main(["train", "--learner", "svr", "--data", str(tube_csv),
          "--epsilon", "0.1", "--lambda", "0.01", "--out", str(model_path)])
    print()

    # The audit replays every case against the saved hypothesis.  Rows are
    # sorted by descending inconsistency, so likely outliers come first.
    print("$ minconsist audit --model tube-model.json --data tube.csv")
    main(["audit", "--model", str(model_path), "--data", str(tube_csv)])
    print()

    saved = load_model(model_path)
    print("saved hypothesis:", saved.hypothesis.b, saved.hypothesis.a)
    print("saved total:     ", saved.total_inconsistency)

    # Categorical models ride the same rails; the sidecar travels with the
    # training call, and prediction needs the same data the model was
    # trained on, enforced through a content hash.
    nb_model = workdir / "shirts-model.json"
    main(["train", "--learner", "nb", "--data", str(shirts_csv),
          "--schema", str(nominal_schema), "--out", str(nb_model)])
    print()

    queries = workdir / "queries.csv"
    queries.write_text("size,fit\nlarge,slim\nsmall,roomy\n")
    print("$ minconsist predict --model shirts-model.json "
          "--queries queries.csv --data shirts.csv")
    main(["predict", "--model", str(nb_model), "--queries", str(queries),
          "--data", str(shirts_csv)])
