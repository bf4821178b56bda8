"""Hyperband search over the hyperparameter grid.

Hyperband runs several successive-halving brackets that trade off the number
of sampled configurations against the training budget (epochs) each one
receives. Bracket s starts n_s = floor((s_max+1)/(s+1)) * eta^s configs at
r_s = R * eta^-s epochs; each halving keeps the best floor(n_i / eta) and
multiplies the budget by eta. Every config trains with a fixed per-trial
seed, which keeps the whole search reproducible from a single master seed.

A promoted trial resumes from the training state its previous rung left
instead of retraining from scratch. This is exact: a trial's early-stopping
patience equals its rung's budget, so early stopping never fires, and
training r_i epochs from scratch is bit for bit the r_{i-1}-epoch run
trained on for r_i - r_{i-1} more. :func:`run_hyperband` says which states
to keep (:class:`TrialStates`); the caller stores them.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import BadArgs, NoTrialsRan
from .nn_core import OptimizerKind, header_check, header_values, integer

#: Candidate values used when no custom grid is supplied.
DEFAULT_BATCH_SIZES = (16, 32, 64, 128, 256)
DEFAULT_SEQUENCE_LENGTHS = (26, 182)
DEFAULT_LSTM_NODES = (16, 32, 64, 128, 256)
DEFAULT_N_LAYERS = (1, 2, 3)
DEFAULT_LEARNING_RATES = (0.01, 0.001, 0.0001)
DEFAULT_OPTIMIZERS = (
    OptimizerKind.SGD,
    OptimizerKind.RMSPROP,
    OptimizerKind.ADAM,
    OptimizerKind.NADAM,
)


@dataclass(frozen=True)
class HyperParams:
    batch_size: int
    sequence_length: int
    lstm_nodes: int
    n_layers: int
    learning_rate: float
    optimizer: OptimizerKind

    def to_dict(self) -> dict:
        return {
            "batch_size": self.batch_size,
            "sequence_length": self.sequence_length,
            "lstm_nodes": self.lstm_nodes,
            "n_layers": self.n_layers,
            "learning_rate": self.learning_rate,
            "optimizer": self.optimizer.value,
        }

    @classmethod
    def from_dict(cls, payload: dict, fail: Callable[[str], Exception] = ValueError) -> "HyperParams":
        """The hyperparameters of a :meth:`to_dict` payload, each field checked by :func:`header_values`, never
        coerced: the sizes integers of at least 1, the learning rate a finite number above 0, the optimizer a kind."""
        return cls(**header_values(payload, _FIELDS, fail))


#: The :func:`header_values` check of each :class:`HyperParams` field, in field order.
_FIELDS = {
    "batch_size": integer(1),
    "sequence_length": integer(1),
    "lstm_nodes": integer(1),
    "n_layers": integer(1),
    "learning_rate": header_check(lambda rate: type(rate) in (int, float) and 0 < rate < math.inf,
                                  "must be a finite number above 0"),
    "optimizer": OptimizerKind,
}


@dataclass(frozen=True)
class CandidateGrid:
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES
    sequence_lengths: Sequence[int] = DEFAULT_SEQUENCE_LENGTHS
    lstm_nodes: Sequence[int] = DEFAULT_LSTM_NODES
    n_layers: Sequence[int] = DEFAULT_N_LAYERS
    learning_rates: Sequence[float] = DEFAULT_LEARNING_RATES
    optimizers: Sequence[OptimizerKind] = DEFAULT_OPTIMIZERS


def sample_config(rng: np.random.Generator, grid: CandidateGrid | None = None) -> HyperParams:
    """One independent uniform draw per field from its candidate list."""
    grid = grid or CandidateGrid()

    def pick(values):
        return values[int(rng.integers(len(values)))]

    return HyperParams(
        batch_size=pick(grid.batch_sizes),
        sequence_length=pick(grid.sequence_lengths),
        lstm_nodes=pick(grid.lstm_nodes),
        n_layers=pick(grid.n_layers),
        learning_rate=pick(grid.learning_rates),
        optimizer=pick(grid.optimizers),
    )


@dataclass(frozen=True)
class Rung:
    n_configs: int
    epochs: int
    n_keep: int  # configs advanced to the next rung


@dataclass(frozen=True)
class Bracket:
    index: int  # s, counting down from s_max
    rungs: tuple[Rung, ...]

    @property
    def n_initial(self) -> int:
        return self.rungs[0].n_configs


@dataclass(frozen=True)
class HyperbandSchedule:
    max_resource: int
    eta: int
    brackets: tuple[Bracket, ...]


def make_schedule(max_resource: int, eta: int) -> HyperbandSchedule:
    """Bracket table for Hyperband with epoch budget ``max_resource``."""
    if max_resource < 1 or eta < 2:
        raise BadArgs(f"need max_resource >= 1 and eta >= 2, got {max_resource}, {eta}")
    s_max = int(math.floor(math.log(max_resource, eta)))
    brackets: list[Bracket] = []
    for s in range(s_max, -1, -1):
        n = ((s_max + 1) // (s + 1)) * eta**s
        r = max_resource * eta ** (-s)
        rungs: list[Rung] = []
        for i in range(s + 1):
            n_i = int(math.floor(n * eta ** (-i)))
            r_i = max(1, int(round(r * eta**i)))
            rungs.append(Rung(n_configs=n_i, epochs=r_i, n_keep=n_i // eta))
        brackets.append(Bracket(index=s, rungs=tuple(rungs)))
    return HyperbandSchedule(max_resource=max_resource, eta=eta, brackets=tuple(brackets))


@dataclass(frozen=True)
class TrialResult:
    trial_id: int
    bracket: int
    rung: int
    hp: HyperParams
    epochs: int
    val_loss: float  # +inf sentinel for diverged trials
    seed: int


#: Trains for ``epochs`` and reports validation loss: (hp, epochs, seed) -> loss.
TrialFn = Callable[[HyperParams, int, int], float]


class TrialStates(Protocol):
    """Where the training states of trials that may yet be promoted wait, by (hp, seed)."""

    def keep(self, hp: HyperParams, seed: int) -> None:
        """Keep the state the trial of (hp, seed) just run ended in."""

    def drop(self, hp: HyperParams, seed: int) -> None:
        """Forget the kept state of (hp, seed): its trial can no longer be promoted."""


@dataclass
class HyperbandResult:
    best: HyperParams
    best_loss: float
    best_seed: int
    trials: list[TrialResult] = field(default_factory=list)


def run_hyperband(
    trial_fn: TrialFn,
    schedule: HyperbandSchedule,
    rng: np.random.Generator,
    grid: CandidateGrid | None = None,
    states: TrialStates | None = None,
) -> HyperbandResult:
    """Run every bracket; return the config with the lowest observed loss.

    Diverged trials (NaN/Inf loss or a raised DivergedTraining) are recorded
    with an infinite sentinel and never selected; they advance only where a
    rung has fewer finite losses than places.

    With ``states``, right after a trial that is not on its bracket's last
    rung and that fewer than its rung's n_keep trials so far beat on (loss,
    trial id), ``states.keep`` is called for it; once n_keep trials beat a
    kept trial, ``states.drop``. At a rung's end the kept states are those of
    exactly the trials it promotes.
    """
    from .errors import DivergedTraining

    trials: list[TrialResult] = []
    trial_counter = 0
    best: TrialResult | None = None

    for bracket in schedule.brackets:
        candidates = []
        for _ in range(bracket.n_initial):
            hp = sample_config(rng, grid)
            seed = int(rng.integers(2**31 - 1))
            candidates.append((hp, seed))
        for rung_idx, rung in enumerate(bracket.rungs):
            places = rung.n_keep if rung_idx + 1 < len(bracket.rungs) else 0
            scored: list[tuple[float, int, HyperParams, int]] = []  # sorted on (loss, trial id)
            for hp, seed in candidates[: rung.n_configs]:
                try:
                    loss = float(trial_fn(hp, rung.epochs, seed))
                except DivergedTraining:
                    loss = math.inf
                if not math.isfinite(loss):
                    loss = math.inf
                result = TrialResult(
                    trial_id=trial_counter,
                    bracket=bracket.index,
                    rung=rung_idx,
                    hp=hp,
                    epochs=rung.epochs,
                    val_loss=loss,
                    seed=seed,
                )
                trial_counter += 1
                trials.append(result)
                if loss < math.inf and (best is None or loss < best.val_loss):
                    best = result
                rank = bisect.bisect(scored, (loss, result.trial_id), key=lambda item: item[:2])
                scored.insert(rank, (loss, result.trial_id, hp, seed))
                if states is not None and rank < places:
                    states.keep(hp, seed)
                    if len(scored) > places:
                        states.drop(*scored[places][2:])
            candidates = [(hp, seed) for _, _, hp, seed in scored[: rung.n_keep]]

    if best is None:
        raise NoTrialsRan("every sampled configuration diverged")
    return HyperbandResult(best=best.hp, best_loss=best.val_loss, best_seed=best.seed, trials=trials)


def write_tuning_report(result: HyperbandResult, path: str | Path) -> None:
    """Audit trail CSV; the winning row is flagged in the last column."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["trial_id", "bracket", "rung", "epochs", "batch", "seq_len", "nodes",
             "layers", "lr", "optimizer", "val_loss", "seed", "winner"]
        )
        best_marked = False
        for t in result.trials:
            is_winner = (
                not best_marked
                and t.hp == result.best
                and t.seed == result.best_seed
                and t.val_loss == result.best_loss
            )
            if is_winner:
                best_marked = True
            writer.writerow(
                [t.trial_id, t.bracket, t.rung, t.epochs, t.hp.batch_size,
                 t.hp.sequence_length, t.hp.lstm_nodes, t.hp.n_layers,
                 repr(t.hp.learning_rate), t.hp.optimizer.value,
                 repr(t.val_loss), t.seed, int(is_winner)]
            )
