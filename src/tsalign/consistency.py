"""Missing-tolerant AR(1) predictor and the normalized consistency score.

The predictor is deliberately minimal: each row of a composed value matrix is
regressed on the previous row with a small ridge penalty on the transition
coefficients (never on the intercept), using only sample pairs whose
predictor row is fully observed.  Series without a usable sample pair, and
matrices with too few rows, fall back to a per-series mean predictor.  Any
predictor exposing ``predict`` can stand in; the score below only needs M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import SeriesTable
from .errors import DataError

RIDGE = 1e-6


@dataclass(frozen=True)
class ConsistencyModel:
    """First-order vector autoregression with mean substitution for gaps."""

    coeff: np.ndarray
    intercept: np.ndarray
    means: np.ndarray
    fitted: bool = True
    fallback_series: tuple[int, ...] = ()
    full_fallback: bool = False

    @property
    def width(self) -> int:
        return self.intercept.shape[0]

    def predict(self, values: np.ndarray) -> np.ndarray:
        """Predict every cell of ``values`` from the preceding row.

        Missing predictors are substituted by the per-series observed mean;
        row 0, which has no predecessor, is predicted from the mean vector.
        """
        values = np.asarray(values, dtype=float)
        rows = values.shape[0]
        if rows == 0:
            return np.zeros_like(values)
        prev = np.empty_like(values)
        prev[0] = self.means
        prev[1:] = values[:-1]
        gaps = np.isnan(prev)
        if gaps.any():
            prev = np.where(gaps, np.broadcast_to(self.means, prev.shape), prev)
        return prev @ self.coeff.T + self.intercept


def fit_model(aligned_values: np.ndarray) -> ConsistencyModel:
    """Fit the masked AR(1) predictor to a (rows, m) value matrix.

    Parameters
    ----------
    aligned_values : ndarray
        Composed alignment values, one row per aligned tuple, NaN = missing.

    Returns
    -------
    ConsistencyModel
        Deterministic fit; degenerate inputs yield a mean predictor
        (``full_fallback`` or per-series ``fallback_series`` flags set)
        rather than an error.
    """
    values = np.asarray(aligned_values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    rows, width = values.shape
    observed = ~np.isnan(values)
    counts = observed.sum(axis=0)
    sums = np.where(observed, values, 0.0).sum(axis=0)
    means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)

    coeff = np.zeros((width, width))
    intercept = means.copy()
    if rows < width + 2:
        return ConsistencyModel(coeff, intercept, means, True,
                                tuple(range(width)), True)

    prev_full = observed[:-1].all(axis=1)
    fallback = []
    for j in range(width):
        usable = prev_full & observed[1:, j]
        if not usable.any():
            fallback.append(j)
            continue
        x = values[:-1][usable]
        y = values[1:][usable, j]
        design = np.hstack([x, np.ones((x.shape[0], 1))])
        normal = design.T @ design
        # damp the transition block only, so constant data fits exactly
        normal[np.arange(width), np.arange(width)] += RIDGE
        rhs = design.T @ y
        try:
            sol = np.linalg.solve(normal, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(normal, rhs, rcond=None)
        if not np.all(np.isfinite(sol)):
            fallback.append(j)
            continue
        coeff[j] = sol[:width]
        intercept[j] = sol[width]
    return ConsistencyModel(coeff, intercept, means, True, tuple(fallback), False)


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-series normalized losses and their mean, the score Delta.

    ``degenerate_series`` (0-based) had mu_j = 0 and no loss; ``all_missing``
    is set when no value was observed.  ``fallback_series`` and
    ``full_fallback`` are the fitted model's flags, set by ``delta_report``:
    the series (0-based) it predicts by their mean, and whether it fell back
    to the mean for every series.
    """

    per_series_loss: np.ndarray
    normalizers: np.ndarray
    delta: float
    abs_errors: np.ndarray
    degenerate_series: tuple[int, ...] = ()
    all_missing: bool = False
    fallback_series: tuple[int, ...] = ()
    full_fallback: bool = False


def consistency_delta(aligned_values: np.ndarray, model: ConsistencyModel) -> ConsistencyReport:
    """Score a composed value matrix against the model's predictions.

    Per series j: A[i,j] = |M[i,j] - V[i,j]| on observed cells, normalized by
    mu_j = F_j * (max_j - min_j); Delta is the mean of the per-series sums.
    Series with mu_j = 0 contribute zero loss and are flagged degenerate.
    Finite values near the float limit can overflow the fit or mu_j; the
    score is then not finite and DataError is raised instead of returning it.
    """
    values = np.asarray(aligned_values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    rows, width = values.shape
    if model.width != width:
        raise ValueError(f"model fitted for width {model.width}, matrix has {width}")
    mask = ~np.isnan(values)
    abs_errors = np.zeros_like(values)
    if rows:
        preds = model.predict(values)
        abs_errors = np.where(mask, np.abs(preds - values), 0.0)
    counts = mask.sum(axis=0)
    vmax = np.where(counts > 0, np.nanmax(np.where(mask, values, -np.inf), axis=0, initial=-np.inf), 0.0)
    vmin = np.where(counts > 0, np.nanmin(np.where(mask, values, np.inf), axis=0, initial=np.inf), 0.0)
    normalizers = counts * (vmax - vmin)
    losses = np.zeros(width)
    degenerate = []
    for j in range(width):
        if normalizers[j] > 0:
            losses[j] = abs_errors[:, j].sum() / normalizers[j]
        else:
            degenerate.append(j)
    delta = float(losses.mean()) if width else 0.0
    if not math.isfinite(delta):
        raise DataError("the consistency score overflowed: the aligned values are "
                        "too large in magnitude for the AR(1) fit")
    return ConsistencyReport(losses, normalizers, delta, abs_errors,
                             tuple(degenerate), not mask.any())


def tuple_value_matrix(slots, t: SeriesTable) -> np.ndarray:
    """Value matrix of an aligned result: row per tuple, column per series.

    ``slots`` is a (T, m) integer slot array, or anything ``np.asarray`` turns
    into one, such as a list of slot vectors.
    """
    return t.values[np.arange(t.m), np.asarray(slots, dtype=np.intp).reshape(-1, t.m)]


def delta_report(slots, t: SeriesTable) -> ConsistencyReport:
    """Fit the predictor to an aligned result (in lexicographic row order) and score it.

    ``slots`` is read as by ``tuple_value_matrix``; its rows are put in
    lexicographic order first, so the order they come in does not matter.
    The report carries the fitted model's fallback flags.
    """
    slots = np.asarray(slots, dtype=np.intp).reshape(-1, t.m)
    matrix = tuple_value_matrix(slots[np.lexsort(slots.T[::-1])], t)
    # overflow is reported once, as the DataError of consistency_delta
    with np.errstate(over="ignore", invalid="ignore"):
        model = fit_model(matrix)
        report = consistency_delta(matrix, model)
    return replace(report, fallback_series=model.fallback_series,
                   full_fallback=model.full_fallback)
