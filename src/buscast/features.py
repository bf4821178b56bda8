"""Feature encoding and window construction.

Each complete service becomes one feature row per stop. The full row layout,
in fixed order, is

    [scaled ridership | day-of-week one-hot (7) | service-number one-hot (S)
     | rain-flag one-hot (2) | scaled precipitation]

with blocks dropped according to the :class:`FeatureSpec`. Ridership is
min-max scaled per stop, precipitation globally; both scalers are fitted on
the training split only. Day-of-week indices run Monday=0 .. Sunday=6, and
the rain one-hot is [no-rain, rain]. A stop's rows are encoded column by
column from the dataset's (day, service, stop) arrays; each element is the
same IEEE operation the per-row formula does, so the rows are bit-identical
to encoding one service at a time.

Rows are sliced into stride-1 look-back windows. Windows never span a gap
left by an excluded incomplete service: a window is always L truly
consecutive timetable slots. Every row, window and target is named by the
absolute slot of its service (see ``RouteDataset``), one int64 per row.

Windows are never materialized, and the columns every stop shares are held
once. A split is held as each stop's scaled ridership, one (n, T) array, the
(T, D-1) covariate columns (weekday, service, rain, precipitation) that are
the same at every stop, and the first row of each window (``starts``). Row t
of stop b is ``[ridership[b, t] | covariates[t]]``, byte for byte what
:func:`encode_stop` gives, and window i of stop b is rows ``starts[i] :
starts[i] + L``. :meth:`AlignedWindows.batch` gathers one training
mini-batch into a C-contiguous (n, B, L, D) array, fresh or given, holding
exactly the bytes that stacking per-window copies would, so the LSTM core
sees the same operands and training stays bit-identical. Forward-only
passes assemble the (n, R, D) rows a chunk of windows reads
(:meth:`AlignedWindows.window_rows`). Memory is n*T + T*(D-1) floats, not
n*T*D, nor L times it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date, timedelta
from typing import Sequence

import numpy as np

from .data_ingest import RouteDataset
from .errors import BadArgs, BadBoundaries, EmptyDataset, EmptyInput, IndexOutOfRange, TooShort

N_WEEKDAYS = 7
N_RAIN_CLASSES = 2


@dataclass(frozen=True)
class FeatureSpec:
    """Which feature blocks a method feeds into its input layer."""

    use_day_of_week: bool
    use_service_number: bool
    use_rain: bool
    services_per_day: int

    @property
    def dimension(self) -> int:
        dim = 1  # the scaled ridership, which every method reads
        if self.use_day_of_week:
            dim += N_WEEKDAYS
        if self.use_service_number:
            dim += self.services_per_day
        if self.use_rain:
            dim += N_RAIN_CLASSES + 1
        return dim


@dataclass(frozen=True)
class ScalerParams:
    """Min-max bounds for one scaled channel, fitted on the training split."""

    min: float
    max: float


@dataclass(frozen=True)
class ScalerSet:
    ridership: dict[int, ScalerParams]
    precipitation: ScalerParams


@dataclass(frozen=True)
class FeatureMatrix:
    """Encoded rows for one stop, chronological, with the slot of each row's service."""

    stop_index: int
    rows: np.ndarray  # (T, D) float64
    targets: np.ndarray  # (T,) float64, raw ridership
    slots: np.ndarray  # (T,) int64, strictly increasing; the dataset's complete services, shared by every stop


@dataclass(frozen=True)
class WindowedDataset:
    """Per-stop supervised windows: window i is x[starts[i] : starts[i]+L], y[i] the next row's target."""

    x: np.ndarray  # (T, D) float64, the stop's encoded rows (not copied)
    starts: np.ndarray  # (N,) intp, first row of each window
    y: np.ndarray  # (N, 1) float64, raw ridership of the predicted service
    slots: np.ndarray  # (N,) int64, slot of the predicted service per window


@dataclass(frozen=True)
class AlignedWindows:
    """Window streams of all stops; the stops share one slot axis, so every window predicts one service.

    Encoded row t of stop b is ``[ridership[b, t] | covariates[t]]``: the
    weekday, service and weather columns are the same at every stop, so they
    are held once.
    """

    ridership: np.ndarray  # (n_stops, T) scaled ridership, column 0 of each stop's encoded rows
    covariates: np.ndarray  # (T, D-1) columns 1.. of the encoded rows, the same at every stop
    starts: np.ndarray  # (N,) intp, first row of each window
    y: np.ndarray  # (N, n_stops) raw targets, column b-1 = stop b
    look_back: int
    slots: np.ndarray  # (N,) int64, slot of the predicted service per window

    @property
    def n_samples(self) -> int:
        return self.y.shape[0]

    @property
    def n_stops(self) -> int:
        return self.y.shape[1]

    @property
    def dimension(self) -> int:
        return self.covariates.shape[1] + 1

    def batch(self, idx, out: np.ndarray | None = None) -> np.ndarray:
        """Windows ``idx`` (indices or a slice) of every stop: one C-contiguous (n, B, L, D) array.

        With ``out``, a C-contiguous array of that shape, the windows are
        gathered into it and it is returned.
        """
        return self._join(self.starts[idx][:, None] + np.arange(self.look_back), out)

    def window_rows(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """The rows windows ``idx`` read, and where each window starts in them.

        The rows run from the first window's start to the last one's end, one
        C-contiguous (n, R, D) array; window i of stop b is ``rows[b, s[i] :
        s[i] + L]`` of the returned ``(rows, s)``.
        """
        starts = self.starts[idx]
        lo, hi = int(starts.min()), int(starts.max()) + self.look_back
        return self._join(slice(lo, hi)), starts - lo

    def _join(self, at, out: np.ndarray | None = None) -> np.ndarray:
        """Encoded rows ``at`` (a slice, or an array of row numbers) of every stop, into ``out`` or a fresh array."""
        covariates = self.covariates[at]
        if out is None:
            out = np.empty((len(self.ridership), *covariates.shape[:-1], self.dimension))
        # Copying stop 1's rows whole to the other stops is faster than
        # broadcasting the covariates into each; column 0 is written last.
        out[0, ..., 1:] = covariates
        out[1:] = out[0]
        out[..., 0] = self.ridership[:, at]
        return out


def fit_scaler(values: Sequence[float] | np.ndarray) -> ScalerParams:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise EmptyInput("cannot fit a scaler on an empty sequence")
    return ScalerParams(min=float(values.min()), max=float(values.max()))


def scale(x: float | np.ndarray, params: ScalerParams):
    """(x - min) / (max - min); a constant channel maps to 0. No clipping."""
    span = params.max - params.min
    if span == 0.0:
        return np.zeros_like(np.asarray(x, dtype=np.float64)) if isinstance(x, np.ndarray) else 0.0
    return (x - params.min) / span


def inverse_scale(x: float | np.ndarray, params: ScalerParams):
    return x * (params.max - params.min) + params.min


def _set_one_hot(rows: np.ndarray, col: int, index: np.ndarray, cardinality: int) -> None:
    """Set row i's column ``col + index[i]`` of the zero columns ``col : col + cardinality`` to 1."""
    bad = index[(index < 0) | (index >= cardinality)]
    if bad.size:
        raise IndexOutOfRange(f"index {bad.flat[0]} outside [0, {cardinality})")
    rows[np.arange(len(index)), col + index] = 1.0


def fit_scalers(train: RouteDataset, spec: FeatureSpec) -> ScalerSet:
    """Per-stop ridership bounds plus global precipitation bounds over the observed cells, train split only.

    Incomplete services count, as every observed value does.
    """
    ridership = {
        stop: fit_scaler(train.ridership[..., stop - 1][train.mask[..., stop - 1]])
        for stop in range(1, train.n_stops + 1)
    }
    if spec.use_rain:
        precipitation = fit_scaler(train.precipitation[train.weather_mask])
    else:
        precipitation = ScalerParams(0.0, 0.0)
    return ScalerSet(ridership=ridership, precipitation=precipitation)


def encode_stop(dataset: RouteDataset, stop_index: int, spec: FeatureSpec, scalers: ScalerSet) -> FeatureMatrix:
    """Encode every complete service at one stop; two are adjacent when their slots differ by one."""
    services = dataset.services_per_day
    slots = np.flatnonzero(dataset.complete)  # counted from the grid's first day
    if not slots.size:
        raise EmptyDataset("no complete services to encode")
    targets = dataset.ridership.reshape(-1, dataset.n_stops)[slots, stop_index - 1].astype(np.float64)
    rows = np.zeros((len(slots), spec.dimension), dtype=np.float64)
    rows[:, 0] = scale(targets, scalers.ridership[stop_index])
    col = 1
    if spec.use_day_of_week:
        weekday = (dataset.first_date.weekday() + slots // services) % N_WEEKDAYS
        _set_one_hot(rows, col, weekday, N_WEEKDAYS)
        col += N_WEEKDAYS
    if spec.use_service_number:
        _set_one_hot(rows, col, slots % services, spec.services_per_day)
        col += spec.services_per_day
    if spec.use_rain:
        _set_one_hot(rows, col, dataset.rain.ravel()[slots].astype(np.intp), N_RAIN_CLASSES)
        rows[:, col + N_RAIN_CLASSES] = scale(dataset.precipitation.ravel()[slots], scalers.precipitation)
    return FeatureMatrix(stop_index, rows, targets, dataset.first_slot + slots)


def build_windows(matrix: FeatureMatrix, look_back: int) -> WindowedDataset:
    """Stride-1 windows over consecutive slots; N = sum(T_run - L) over the runs of consecutive slots.

    Slots strictly increase, so rows i..i+L hold consecutive services exactly
    when their slots span L.
    """
    if look_back < 1:
        raise BadArgs(f"look-back must be >= 1, got {look_back}")
    slots = matrix.slots
    starts = np.flatnonzero(slots[look_back:] - slots[:-look_back] == look_back)
    if not starts.size:
        raise TooShort(
            f"no segment longer than look-back {look_back} at stop {matrix.stop_index}"
        )
    targets = starts + look_back
    return WindowedDataset(
        x=matrix.rows, starts=starts, y=matrix.targets[targets].reshape(-1, 1), slots=slots[targets]
    )


def chronological_split(
    dataset: RouteDataset, boundaries: tuple[date, date]
) -> tuple[RouteDataset, RouteDataset, RouteDataset]:
    """Partition by service date: train <= b1 < validation <= b2 < test."""
    train_end, val_end = boundaries
    if train_end >= val_end:
        raise BadBoundaries(f"boundaries not strictly increasing: {train_end} >= {val_end}")
    lo, hi = dataset.date_range()
    one_day = timedelta(days=1)
    try:
        train = dataset.subset_by_dates(lo, train_end)
        val = dataset.subset_by_dates(train_end + one_day, val_end)
        test = dataset.subset_by_dates(val_end + one_day, hi)
    except EmptyDataset as exc:
        raise BadBoundaries(f"boundaries {boundaries} leave an empty split") from exc
    return train, val, test


def scale_targets(aligned: AlignedWindows, scalers: ScalerSet) -> AlignedWindows:
    """Copy of the aligned windows with targets min-max scaled per stop."""
    y = aligned.y.copy()
    for col in range(y.shape[1]):
        y[:, col] = scale(y[:, col], scalers.ridership[col + 1])
    return replace(aligned, y=y)


def stop_view(aligned: AlignedWindows, stops: slice) -> AlignedWindows:
    """The streams of the stops in ``stops`` (zero-based columns) out of an aligned set; shares the arrays."""
    return replace(aligned, ridership=aligned.ridership[stops], y=aligned.y[:, stops])


def subset_by_targets(aligned: AlignedWindows, slots: np.ndarray) -> AlignedWindows:
    """Restrict windows to those predicting one of ``slots`` (order preserved); shares the encoded columns."""
    keep = np.isin(aligned.slots, slots)
    if not keep.any():
        raise EmptyInput("no windows left after target restriction")
    return replace(aligned, starts=aligned.starts[keep], y=aligned.y[keep], slots=aligned.slots[keep])


@dataclass(frozen=True)
class PreparedData:
    """Windowed train/validation/test streams plus the scalers that made them."""

    train: AlignedWindows
    val: AlignedWindows
    test: AlignedWindows
    scalers: ScalerSet
    spec: FeatureSpec


def encode_windows(
    dataset: RouteDataset, spec: FeatureSpec, scalers: ScalerSet, look_back: int
) -> AlignedWindows:
    """Encode and window every stop of one dataset with pre-fitted scalers.

    The stops share the dataset's complete services, so their windows start
    at the same rows and predict the same services, and all columns but the
    ridership are the same at every stop: stop 1's encoding supplies them
    and the windows, and each stop adds its scaled ridership.
    """
    matrix = encode_stop(dataset, 1, spec, scalers)
    windows = build_windows(matrix, look_back)
    targets = dataset.ridership.reshape(-1, dataset.n_stops)[matrix.slots - dataset.first_slot].astype(np.float64)
    ridership = np.empty((dataset.n_stops, len(targets)))
    for b in range(dataset.n_stops):
        ridership[b] = scale(targets[:, b], scalers.ridership[b + 1])
    return AlignedWindows(
        ridership=ridership,
        covariates=matrix.rows[:, 1:].copy(),  # not a view that keeps stop 1's rows alive
        starts=windows.starts,
        y=targets[windows.starts + look_back],
        look_back=look_back,
        slots=windows.slots,
    )


def prepare_windows(
    dataset: RouteDataset,
    boundaries: tuple[date, date],
    spec: FeatureSpec,
    look_back: int,
) -> PreparedData:
    """Split chronologically, fit scalers on train, encode and window each split."""
    train_ds, val_ds, test_ds = chronological_split(dataset, boundaries)
    scalers = fit_scalers(train_ds, spec)
    return PreparedData(
        train=encode_windows(train_ds, spec, scalers, look_back),
        val=encode_windows(val_ds, spec, scalers, look_back),
        test=encode_windows(test_ds, spec, scalers, look_back),
        scalers=scalers,
        spec=spec,
    )
