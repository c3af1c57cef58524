"""Fit the LUT and FF resource estimators from a calibration CSV.

Prints the model document that `resource_model.default_regression_models`
loads: `{"lut": ..., "ff": ...}`, each a `RegressionModel.to_dict()`. The
bundled `src/harflow/data/regression/default_model.json` is this tool's fit
of the bundled `calibration.csv` (the default input):

    python3 tools/fit_resources.py > src/harflow/data/regression/default_model.json

The CSV format is in docs/artifacts.md. `--ridge` adds a fixed 1e-6
Tikhonov regulariser, for datasets with fewer independent samples than
features.
"""

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
CALIBRATION_CSV = SRC / "harflow" / "data" / "regression" / "calibration.csv"


def _rows_from_csv(samples_csv: str) -> list:
    from harflow.resource_model import ResourceModelError

    reader = csv.DictReader(io.StringIO(samples_csv))
    rows = list(reader)
    if not rows:
        raise ResourceModelError("calibration CSV is empty")
    required = {"kind", "c_in", "c_out", "f", "kvol", "smax", "lut", "ff"}
    missing = required - set(reader.fieldnames or [])
    if missing:
        raise ResourceModelError(f"calibration CSV missing columns: {sorted(missing)}")
    return rows


def regression_fit(samples_csv: str, target: str, ridge: bool = False):
    """Least-squares fit of a LUT or FF estimator from a calibration CSV, as a
    `resource_model.RegressionModel`.

    The kind one-hot columns absorb the intercept, so none is fitted. With
    fewer independent samples than features the plain fit is singular; pass
    ridge=True to use a fixed 1e-6 Tikhonov regulariser instead.
    """
    from harflow.resource_model import (
        NUMERIC_FEATURES,
        REGRESSION_FEATURES,
        RegressionModel,
        ResourceModelError,
        _features,
    )

    if target not in ("lut", "ff"):
        raise ResourceModelError(f"unknown regression target '{target}'")
    rows = _rows_from_csv(samples_csv)
    if len(rows) < 2:
        raise ResourceModelError("need at least 2 calibration samples")
    x = np.array([_features(r["kind"], (r[k] for k in NUMERIC_FEATURES)) for r in rows])
    y = np.array([float(r[target]) for r in rows])
    n_params = x.shape[1]
    if ridge:
        a = x.T @ x + 1e-6 * np.eye(n_params)
        theta = np.linalg.solve(a, x.T @ y)
    else:
        if len(rows) < n_params or np.linalg.matrix_rank(x) < n_params:
            raise ResourceModelError(
                "singular regression fit (fewer independent samples than features); "
                "retry with ridge=True (fixed 1e-6 regulariser)"
            )
        theta, *_ = np.linalg.lstsq(x, y, rcond=None)
    return RegressionModel(
        target=target,
        feature_names=REGRESSION_FEATURES,
        coefficients=tuple(float(c) for c in theta),
        intercept=0.0,
    )


def fit_document(samples_csv: str, ridge: bool = False) -> dict:
    """The model document of both estimators fitted from `samples_csv`."""
    return {target: regression_fit(samples_csv, target, ridge).to_dict()
            for target in ("lut", "ff")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("csv", nargs="?", type=Path, default=CALIBRATION_CSV,
                    help="calibration CSV (default: the bundled dataset)")
    ap.add_argument("--ridge", action="store_true", help="fit with a 1e-6 regulariser")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    print(json.dumps(fit_document(args.csv.read_text(), args.ridge), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
