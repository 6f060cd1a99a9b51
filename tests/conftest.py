import numpy as np
import pytest

from plselect.dataset import COLUMNS, Dataset, split_dataset, standardize
from plselect.scenario import FeatureCatalog


def make_planted_dataset(
    planted=(0, 1, 2, 3),
    coefficients=(4.0, 3.0, 2.5, 2.0),
    n_samples=400,
    n_features=10,
    noise_sigma=0.5,
    seed=0,
    split_seed=0,
):
    """Synthetic dataset whose target depends only on the planted features.

    Ground truth is known by construction, so recovery tests have an exact
    oracle for the relevant subset.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_samples, n_features))
    y = X[:, list(planted)] @ np.asarray(coefficients[: len(planted)])
    y = y + rng.normal(0.0, noise_sigma, size=n_samples)
    ds = Dataset(X=X, y=y, scenario_id=np.full(n_samples, "planted"),
                 route_index=np.arange(n_samples),
                 catalog=catalog_for(n_features))
    return standardize(split_dataset(ds, seed=split_seed))


def make_manual_dataset(feature_columns, targets, split_labels):
    """Dataset built directly from explicit columns and split labels."""
    X = np.asarray(feature_columns, dtype=float)
    n = X.shape[0]
    return Dataset(X=X, y=targets, scenario_id=np.full(n, "manual"),
                   route_index=np.arange(n), catalog=catalog_for(X.shape[1]),
                   split=split_labels)


def unsplit(ds, **columns):
    """A new Dataset of ds's columns and catalog without its split and
    standardization, with the given columns replaced."""
    kept = {name: getattr(ds, name) for name in COLUMNS}
    return Dataset(**{**kept, **columns}, catalog=ds.catalog)


def catalog_for(n_features):
    """The default catalog when it has n_features, else one of generic
    symbols in a single category."""
    catalog = FeatureCatalog()
    if n_features == catalog.n_features:
        return catalog
    return FeatureCatalog(
        symbols=tuple(f"x{i + 1}" for i in range(n_features)),
        categories=("Generic",) * n_features,
    )


@pytest.fixture(scope="session")
def planted_ds():
    return make_planted_dataset()
