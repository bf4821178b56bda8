"""Exception hierarchy shared across the package, and the file helpers every command reads and writes through.

Every error raised by buscast derives from :class:`BuscastError`, so callers
(and the CLI) can catch one type and still report a precise failure kind.
Every input is read with :func:`read_input`; every output file is written
with :func:`write_output`, in place and cut to its new length.
"""

import os
from contextlib import contextmanager
from pathlib import Path


class BuscastError(Exception):
    """Base class for all buscast errors."""


class UnreadableInput(BuscastError):
    """An input file could not be read: it is missing, a directory, or not readable."""


def read_input(path, what: str, text: bool = True) -> str | bytes:
    """The UTF-8 text of ``path``, line ends untranslated, or its bytes if not ``text``. A file that cannot be
    read raises :class:`UnreadableInput` naming the input as ``what``; text not UTF-8, :class:`MalformedRow`."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise UnreadableInput(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    try:
        return raw.decode("utf-8") if text else raw
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{path}: not UTF-8 text (byte {exc.start})") from None


@contextmanager
def write_output(path, binary: bool = False):
    """``path`` opened for writing as UTF-8 text with line ends untranslated, or as bytes if ``binary``.

    The file is written over in place and cut where the writing stopped, even
    if the block raises, so it ends as a truncating open would leave it. An
    existing file is not truncated on open: freeing its blocks first can take
    tens of milliseconds on a filesystem mounted with ``discard``. An error in
    the block still cuts the file, so content that may fail to build is built
    before it. A process killed inside the block leaves the new bytes over the
    old file's tail; a file that must not be read torn marks itself whole
    last, as ``nn_core.save_params`` does with its magic.
    """
    fd = os.open(os.fspath(path), os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") if binary else open(fd, "w", encoding="utf-8", newline="") as fh:
        try:
            yield fh
        finally:
            fh.truncate()


# ingestion
class MissingColumn(BuscastError):
    """A required CSV column is absent from the header."""


class MalformedRow(BuscastError):
    """A CSV row failed validation (bad date, bad integer, negative count...)."""


class DuplicateKey(BuscastError):
    """Two rows share a key that must be unique."""


class UnknownCategory(BuscastError):
    """A weather label could not be mapped to one of the six categories."""


class HourOutOfRange(BuscastError):
    """A weather observation lies outside the 6..23 collection window."""


class MissingWeather(BuscastError):
    """No weather observation exists for a required (date, hour)."""


class MissingTimetableEntry(BuscastError):
    """A service index has no scheduled departure time."""


class EmptyDataset(BuscastError):
    """An operation received a dataset with no usable services."""


# features
class EmptyInput(BuscastError):
    """An operation received an empty sequence."""


class IndexOutOfRange(BuscastError):
    """A one-hot index fell outside its cardinality."""


class TooShort(BuscastError):
    """No contiguous run of services is long enough to form a window."""


class BadBoundaries(BuscastError):
    """Split boundaries are not strictly increasing inside the dataset range."""


# numerical core / models
class ShapeMismatch(BuscastError):
    """Tensor shapes are inconsistent with the operation's contract."""


class NonPositiveLearningRate(BuscastError):
    """Optimizers require a strictly positive learning rate."""


class InvalidHyperParams(BuscastError):
    """A hyperparameter lies outside its valid range."""


class MisalignedBatches(BuscastError):
    """Per-stop inputs do not refer to the same window positions."""


class DivergedTraining(BuscastError):
    """Training produced a non-finite loss."""


class EmptyWindow(BuscastError):
    """The requested date window contains no services."""


class MissingKey(BuscastError):
    """A (stop, service) key is absent from the fitted mean table."""


class InsufficientHistory(BuscastError):
    """Fewer consecutive services are available than the model's look-back."""


class CheckpointError(BuscastError):
    """A checkpoint file is corrupt or has an unsupported version."""


# tuning
class BadArgs(BuscastError):
    """Invalid arguments to the tuning schedule."""


class NoTrialsRan(BuscastError):
    """Every tuning trial diverged; no winner exists."""


# evaluation
class LengthMismatch(BuscastError):
    """Prediction and target sequences differ in length."""


class InsufficientData(BuscastError):
    """Not enough paired observations to compute a statistic."""


class MissingModel(BuscastError):
    """A required trained model checkpoint was not found."""


class MissingMethod(BuscastError):
    """A method id is absent from the evaluation report."""


class ZeroReferenceRmse(BuscastError):
    """Improvement percentages are undefined against a zero reference RMSE."""
