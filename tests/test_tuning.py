import math
from dataclasses import fields

import numpy as np
import pytest

from buscast.errors import BadArgs, NoTrialsRan
from buscast.nn_core import OptimizerKind
from buscast.tuning import (
    CandidateGrid,
    HyperParams,
    make_schedule,
    run_hyperband,
    sample_config,
    write_tuning_report,
)


class TestGrid:
    def test_cardinality(self):
        # 5 batch sizes x 2 sequence lengths x 5 node counts x 3 depths
        # x 3 learning rates x 4 implemented optimizers
        grid = CandidateGrid()
        assert math.prod(len(getattr(grid, f.name)) for f in fields(grid)) == 1800

    def test_sampling_reproducible(self):
        a = [sample_config(np.random.default_rng(3)) for _ in range(20)]
        b = [sample_config(np.random.default_rng(3)) for _ in range(20)]
        assert a == b

    def test_samples_stay_on_grid(self):
        grid = CandidateGrid()
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            hp = sample_config(rng, grid)
            assert hp.batch_size in grid.batch_sizes
            assert hp.sequence_length in grid.sequence_lengths
            assert hp.lstm_nodes in grid.lstm_nodes
            assert hp.n_layers in grid.n_layers
            assert hp.learning_rate in grid.learning_rates
            assert hp.optimizer in grid.optimizers

    def test_round_trip_dict(self):
        hp = HyperParams(16, 26, 64, 1, 0.001, OptimizerKind.ADAM)
        assert HyperParams.from_dict(hp.to_dict()) == hp


class TestSchedule:
    def test_hand_derived_table_r27(self):
        schedule = make_schedule(27, 3)
        assert [b.index for b in schedule.brackets] == [3, 2, 1, 0]
        assert [(b.n_initial, b.rungs[0].epochs) for b in schedule.brackets] == [
            (27, 1),
            (9, 3),
            (6, 9),
            (4, 27),
        ]
        top = schedule.brackets[0]
        assert [(r.n_configs, r.epochs, r.n_keep) for r in top.rungs] == [
            (27, 1, 9),
            (9, 3, 3),
            (3, 9, 1),
            (1, 27, 0),
        ]

    def test_hand_derived_table_r9(self):
        schedule = make_schedule(9, 3)
        assert [(b.n_initial, b.rungs[0].epochs) for b in schedule.brackets] == [
            (9, 1),
            (3, 3),
            (3, 9),
        ]

    def test_unit_resource_single_round(self):
        schedule = make_schedule(1, 3)
        assert len(schedule.brackets) == 1
        assert schedule.brackets[0].rungs == (type(schedule.brackets[0].rungs[0])(1, 1, 0),)

    def test_bad_args(self):
        with pytest.raises(BadArgs):
            make_schedule(0, 3)
        with pytest.raises(BadArgs):
            make_schedule(10, 1)

    def test_bracket_budgets_near_nominal(self):
        schedule = make_schedule(27, 3)
        s_max = max(b.index for b in schedule.brackets)
        nominal = (s_max + 1) * schedule.max_resource
        for bracket in schedule.brackets:
            spent = sum(r.n_configs * r.epochs for r in bracket.rungs)
            assert nominal / (s_max + 1) <= spent <= nominal

    def test_halving_ratios(self):
        for bracket in make_schedule(27, 3).brackets:
            for rung, nxt in zip(bracket.rungs, bracket.rungs[1:]):
                assert nxt.n_configs == rung.n_keep == rung.n_configs // 3
                assert nxt.epochs == rung.epochs * 3


def _loss_surface(hp: HyperParams) -> float:
    """Deterministic objective minimized at (batch 16, nodes 64, 1 layer, lr 0.001, adam)."""
    penalty = 0.0
    penalty += abs(math.log2(hp.batch_size) - 4)
    penalty += abs(math.log2(hp.lstm_nodes) - 6)
    penalty += abs(hp.n_layers - 1)
    penalty += abs(math.log10(hp.learning_rate) + 3)
    penalty += 0.0 if hp.optimizer is OptimizerKind.ADAM else 1.0
    penalty += 0.0 if hp.sequence_length == 26 else 0.5
    return penalty


class TestRunHyperband:
    def test_winner_is_best_sampled(self):
        seen = []

        def trial(hp, epochs, seed):
            seen.append(hp)
            return _loss_surface(hp)

        schedule = make_schedule(9, 3)
        result = run_hyperband(trial, schedule, np.random.default_rng(12))
        assert result.best_loss == min(_loss_surface(hp) for hp in seen)
        assert _loss_surface(result.best) == result.best_loss

    def test_reproducible(self):
        def trial(hp, epochs, seed):
            return _loss_surface(hp)

        runs = [run_hyperband(trial, make_schedule(9, 3), np.random.default_rng(5)) for _ in range(2)]
        assert runs[0].best == runs[1].best
        assert [(t.trial_id, t.hp, t.val_loss) for t in runs[0].trials] == [
            (t.trial_id, t.hp, t.val_loss) for t in runs[1].trials
        ]

    def test_all_diverged(self):
        def trial(hp, epochs, seed):
            return float("nan")

        with pytest.raises(NoTrialsRan):
            run_hyperband(trial, make_schedule(3, 3), np.random.default_rng(0))

    def test_halving_keeps_best_subset(self):
        def trial(hp, epochs, seed):
            return _loss_surface(hp)

        result = run_hyperband(trial, make_schedule(9, 3), np.random.default_rng(9))
        by_bracket_rung: dict = {}
        for t in result.trials:
            by_bracket_rung.setdefault((t.bracket, t.rung), []).append(t)
        for (bracket, rung), trials in by_bracket_rung.items():
            nxt = by_bracket_rung.get((bracket, rung + 1))
            if nxt is None:
                continue
            assert len(nxt) == len(trials) // 3
            survivors = {(t.hp, t.seed) for t in nxt}
            ranked = sorted(trials, key=lambda t: (t.val_loss, t.trial_id))
            assert survivors == {(t.hp, t.seed) for t in ranked[: len(nxt)]}
            # resource grows by eta between rungs
            assert nxt[0].epochs == trials[0].epochs * 3

    def test_winner_not_worse_than_any_final_rung(self):
        def trial(hp, epochs, seed):
            return _loss_surface(hp)

        result = run_hyperband(trial, make_schedule(27, 3), np.random.default_rng(2))
        finals = {}
        for t in result.trials:
            finals[(t.bracket, t.hp, t.seed)] = t.val_loss
        assert all(result.best_loss <= v for v in finals.values())

    def test_diverged_trials_never_selected(self):
        def trial(hp, epochs, seed):
            if hp.optimizer is OptimizerKind.ADAM:
                return float("inf")
            return _loss_surface(hp)

        result = run_hyperband(trial, make_schedule(9, 3), np.random.default_rng(4))
        assert result.best.optimizer is not OptimizerKind.ADAM

    def test_states_are_kept_for_exactly_the_promoted_trials(self):
        events = []

        class States:
            def keep(self, hp, seed):
                events.append(("keep", hp, seed))

            def drop(self, hp, seed):
                events.append(("drop", hp, seed))

        def trial(hp, epochs, seed):
            events.append(("trial", hp, seed))
            # Ties on (loss) and diverged trials exercise the (loss, trial id) order.
            return float("inf") if hp.optimizer is OptimizerKind.SGD else _loss_surface(hp)

        schedule = make_schedule(27, 3)
        result = run_hyperband(trial, schedule, np.random.default_rng(4), states=States())
        trials = iter(result.trials)
        kept: set = set()
        for kind, hp, seed in events:
            if kind == "keep":
                assert (hp, seed) not in kept
                kept.add((hp, seed))
            elif kind == "drop":
                kept.remove((hp, seed))
            else:
                t = next(trials)
                assert (t.hp, t.seed) == (hp, seed)
                if t.rung > 0:  # a promoted trial finds its state kept, and resumes from it
                    kept.remove((hp, seed))
        assert not kept and next(trials, None) is None
        assert sum(kind == "keep" for kind, _, _ in events) > sum(t.rung > 0 for t in result.trials)


class TestReport:
    def test_rows_and_winner_flag(self, tmp_path):
        def trial(hp, epochs, seed):
            return _loss_surface(hp)

        result = run_hyperband(trial, make_schedule(9, 3), np.random.default_rng(1))
        path = tmp_path / "tuning.csv"
        write_tuning_report(result, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(result.trials)
        winners = [line for line in lines[1:] if line.endswith(",1")]
        assert len(winners) == 1
