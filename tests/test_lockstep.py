"""Folds trained in lockstep give each fold exactly what it gets trained alone.

``train_eval.run_folds`` trains the folds that share their model dims as
the rows of one stacked store, one graph per step; ``run_fold`` is the
one-fold case. Every fold's checkpoint bytes, epoch log and report must
match between the two, including steps where the folds' minibatches differ
in shape (a ragged last batch, other window groups) and steps where a fold
has no minibatch left.
"""

import numpy as np
import pytest

import cdgl.train_eval as tv
from cdgl import diffcore as dc
from cdgl import model
from cdgl.data_io import RoiTimeSeries, SplitPlan
from cdgl.errors import NumericsError


def cohort(rng, lengths, m=5):
    """One subject per entry of ``lengths`` (its timepoint count), labels alternating."""
    subjects = []
    for i, t in enumerate(lengths):
        x = rng.standard_normal((t, m))
        if i % 2:
            x[:, : m // 2] *= 2.0
        subjects.append(RoiTimeSeries(f"s{i:02d}", x, i % 2))
    return subjects


def plan_of(folds):
    """A plan whose folds are the given (train ids, validation ids) pairs."""
    ids = sorted({i for train, val in folds for i in train + val})
    return SplitPlan(train_ids=ids, test_ids=[], folds=folds, seed=0)


def cfg_of(**overrides):
    base = dict(layers=1, batch_size=4, lr=1e-2, weight_decay=0.05, window_size=10,
                stride=5, hidden_dim=4, proj_dim=4, alpha=0.1, epochs=3, seed=3,
                distance_kind="manhattan")
    base.update(overrides)
    return tv.TrainConfig(**base)


@pytest.fixture
def steps(monkeypatch):
    """Records every lockstep step as (folds in its graph, window-group sizes of
    its first fold) and every Adam call's active folds."""
    record = {"graphs": [], "active": []}
    step, adam = tv._lockstep_step, dc.adam_step

    def recorded_step(store, dims, groups, ccfg, sums):
        record["graphs"].append((store.n_folds, [len(g) for g in groups[0]]))
        return step(store, dims, groups, ccfg, sums)

    def recorded_adam(store, state, active=None):
        record["active"].append(list(active))
        return adam(store, state, active)

    monkeypatch.setattr(tv, "_lockstep_step", recorded_step)
    monkeypatch.setattr(dc, "adam_step", recorded_adam)
    return record


def assert_lockstep_matches_alone(preps, cfg, plan, tmp_path, steps):
    """Run the plan's folds together, then each alone, and compare; returns
    the steps record of the run together."""
    idx = list(range(len(plan.folds)))
    together = tv.run_folds(preps, cfg, plan, idx)
    record = {key: list(values) for key, values in steps.items()}
    for i in idx:
        alone = tv.run_fold(preps, cfg, plan, i)
        for name, result in (("lockstep", together[i]), ("alone", alone)):
            tv.save_model(str(tmp_path / f"{name}{i}.ckpt"), result.store, result.dims, cfg)
        assert together[i].fold_index == i
        assert together[i].dims == alone.dims
        assert together[i].epoch_log == alone.epoch_log, i
        assert together[i].report == alone.report, i
        lock = (tmp_path / f"lockstep{i}.ckpt").read_bytes()
        assert lock == (tmp_path / f"alone{i}.ckpt").read_bytes(), i
    return record


def test_unequal_folds_ragged_batches_and_idle_folds(tmp_path, steps):
    rng = np.random.default_rng(0)
    subjects = cohort(rng, [30] * 27)
    cfg = cfg_of()
    preps = tv.prepare_dataset(subjects, cfg)
    ids = [p.subject_id for p in preps]
    # 7, 5 and 9 training subjects: at batch size 4 the second step is
    # ragged in every fold (3, 1, 4), and only the last fold has a third
    plan = plan_of([(ids[0:7], ids[21:23]), (ids[7:12], ids[23:25]),
                    (ids[12:21], ids[25:27])])
    record = assert_lockstep_matches_alone(preps, cfg, plan, tmp_path, steps)
    lockstep = [n for n, _ in record["graphs"] if n == 3]
    assert len(lockstep) == cfg.epochs  # the first step of every epoch
    assert [False, False, True] in record["active"]  # the short folds sit out the third step


def test_two_lengths_split_dims_and_window_groups(tmp_path, steps):
    rng = np.random.default_rng(1)
    # 30 timepoints give 5 windows, 35 give 6
    subjects = cohort(rng, [30, 35] * 8 + [35] * 6)
    cfg = cfg_of()
    preps = tv.prepare_dataset(subjects, cfg)
    ids = [p.subject_id for p in preps]
    short = [p.subject_id for p in preps if len(p.starts) == 5]
    long = [p.subject_id for p in preps if len(p.starts) == 6]
    # folds 0 and 1 mix both lengths (5 reference windows); fold 2 sees
    # only long subjects (6), so it trains in a group of its own
    plan = plan_of([(short[:3] + long[:3], ids[16:18]), (short[3:6] + long[3:6], ids[18:20]),
                    (long[8:], short[6:8])])
    dims = [tv.make_dims([p for p in preps if p.subject_id in train], cfg)
            for train, _ in plan.folds]
    assert dims[0] == dims[1] != dims[2]
    record = assert_lockstep_matches_alone(preps, cfg, plan, tmp_path, steps)
    assert any(n == 2 and len(groups) == 2 for n, groups in record["graphs"])
    assert any(n == 1 and len(groups) == 2 for n, groups in record["graphs"])


def test_one_stream_without_contrastive_term(tmp_path, steps):
    rng = np.random.default_rng(2)
    subjects = cohort(rng, [30] * 16)
    cfg = cfg_of(streams="r", alpha=0.0, batch_size=2)
    preps = tv.prepare_dataset(subjects, cfg)
    ids = [p.subject_id for p in preps]
    plan = plan_of([(ids[4:], ids[:4]), (ids[:4] + ids[8:], ids[4:8]),
                    (ids[:8] + ids[12:], ids[8:12]), (ids[:12], ids[12:])])
    record = assert_lockstep_matches_alone(preps, cfg, plan, tmp_path, steps)
    assert record["graphs"] and all(n == 4 for n, _ in record["graphs"])


def test_cross_validate_groups_match_one_group():
    rng = np.random.default_rng(3)
    subjects = cohort(rng, [30] * 20)
    cfg = cfg_of(epochs=2)
    one = tv.cross_validate(subjects, cfg, k=4, test_fraction=0.2)
    split = tv.cross_validate(subjects, cfg, k=4, test_fraction=0.2, jobs=3)
    assert tv.cv_report_dict(one) == tv.cv_report_dict(split)
    assert [f.epoch_log for f in one.folds] == [f.epoch_log for f in split.folds]


@pytest.mark.parametrize("mixed", [False, True], ids=["equal-lengths", "mixed-lengths"])
def test_holdout_row_matches_a_lone_model(tmp_path, steps, mixed):
    """cross_validate(holdout=True) trains the holdout model as one more
    lockstep row; its store, epoch log and report equal those of the model
    fit_folds trains alone on the CV subjects from cfg.seed. In the mixed
    cohort one CV subject is short, so fold 0, which validates it, trains
    under other dims than folds 1 and 2 and the holdout model."""
    cfg = cfg_of(epochs=2)
    rng = np.random.default_rng(7)
    short = tv.split_subjects(cohort(rng, [30] * 20), 0.2, 3, cfg.seed).train_ids[0]
    # 25 timepoints give 4 windows, 30 give 5
    subjects = cohort(rng, [25 if mixed and f"s{i:02d}" == short else 30 for i in range(20)])
    cv = tv.cross_validate(subjects, cfg, k=3, test_fraction=0.2, holdout=True)
    by_id = {p.subject_id: p for p in tv.prepare_dataset(subjects, cfg)}
    alone = tv.fit_folds([[by_id[i] for i in cv.plan.train_ids]], cfg, [cfg.seed])[0]
    report = tv.evaluate(alone.store, alone.dims, [by_id[i] for i in cv.plan.test_ids])
    held = cv.holdout
    assert held.fold_index == 3
    assert held.dims == alone.dims
    assert held.epoch_log == alone.epoch_log
    assert held.report == report
    for name, result in (("row", held), ("alone", alone)):
        tv.save_model(str(tmp_path / f"{name}.ckpt"), result.store, result.dims, cfg)
    assert (tmp_path / "row.ckpt").read_bytes() == (tmp_path / "alone.ckpt").read_bytes()
    assert [f.dims != held.dims for f in cv.folds] == [mixed, False, False]
    # the holdout model stacks with every fold of its dims
    assert max(n for n, _ in steps["graphs"]) == (3 if mixed else 4)


def test_stacked_forward_and_gradients_equal_each_fold_alone():
    """Every fused kernel applies a fold's weights to that fold's rows
    exactly as a lone model does: values and gradients bit for bit."""
    rng = np.random.default_rng(4)
    cfg = tv.TrainConfig(window_size=10, stride=5, hidden_dim=4, proj_dim=3)
    preps = tv.prepare_dataset(cohort(rng, [30] * 6), cfg)
    dims = tv.make_dims(preps, cfg)
    alone = [model.init_params(dims, seed) for seed in (5, 6, 7)]
    stacked = dc.ParamStore.stack([model.init_params(dims, seed) for seed in (5, 6, 7)])
    total = model.batch_loss_parts(stacked, dims, preps, cfg.contrastive())[0]
    stacked.zero_grad()
    dc.backward(dc.sum_all(total))
    for f, store in enumerate(alone):
        part = model.batch_loss_parts(store, dims, preps[2 * f:2 * f + 2], cfg.contrastive())[0]
        store.zero_grad()
        dc.backward(dc.sum_all(part))
        np.testing.assert_array_equal(total.data[2 * f:2 * f + 2], part.data)
        for name, t in store.items():
            np.testing.assert_array_equal(stacked.fold(f)[name].data, t.data)
            np.testing.assert_array_equal(stacked.fold(f)[name].grad, t.grad, err_msg=name)


def test_stacked_model_gradcheck():
    rng = np.random.default_rng(8)
    cfg = tv.TrainConfig(window_size=8, stride=4, hidden_dim=3, proj_dim=3, layers=2)
    preps = tv.prepare_dataset(cohort(rng, [20] * 4, m=4), cfg)
    dims = tv.make_dims(preps, cfg)
    store = dc.ParamStore.stack([model.init_params(dims, seed) for seed in (1, 2)])

    def build():
        return dc.sum_all(model.batch_loss_parts(store, dims, preps, cfg.contrastive())[0])

    coords = dc.sample_coords(store.items(), 120, np.random.default_rng(0))
    report = dc.finite_diff_check(build, store.items(), coords)
    assert report.n_coords >= 120
    assert report.max_rel_err < 1e-4, (report.worst_param, report.max_rel_err)


def test_lockstep_runs_stack_few_node_rows():
    """Lockstep stacks the README demo's four folds, but not the folds of the
    long-scan shape (58 windows, 90 ROIs), whose one-subject minibatch
    alone holds more node rows than a lockstep step may stack."""
    rng = np.random.default_rng(5)
    demo_cfg = tv.TrainConfig()
    demo = tv.prepare_dataset(cohort(rng, [120] * 4, m=10), demo_cfg)
    groups = [model.group_by_windows(demo)] * 4
    assert tv._lockstep_runs(groups, 10) == [(0, 4)]
    long_cfg = tv.TrainConfig(window_size=30, stride=10, batch_size=1)
    long = tv.prepare_dataset(cohort(rng, [600], m=90), long_cfg)
    assert len(long[0].starts) * 90 > tv.LOCKSTEP_STACK_ROWS
    assert tv._lockstep_runs([[long]] * 4, 90) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_runs_cut_at_the_row_budget_match_each_fold_alone(tmp_path, steps, monkeypatch):
    rng = np.random.default_rng(6)
    subjects = cohort(rng, [30] * 20)
    cfg = cfg_of(epochs=2)
    preps = tv.prepare_dataset(subjects, cfg)
    ids = [p.subject_id for p in preps]
    # a full minibatch is 4 subjects x 5 windows x 5 ROIs = 100 rows: two
    # folds fit in a step, three do not
    monkeypatch.setattr(tv, "LOCKSTEP_STACK_ROWS", 200)
    plan = plan_of([(ids[4 * i:4 * i + 4] + ids[16:], ids[4 * j:4 * j + 2])
                    for i, j in zip(range(4), (1, 2, 3, 0))] + [(ids[:8], ids[16:18])])
    record = assert_lockstep_matches_alone(preps, cfg, plan, tmp_path, steps)
    assert record["graphs"] and max(n for n, _ in record["graphs"]) == 2
    assert {tuple(a) for a in record["active"]} == {(True,) * 5}


def test_a_step_error_names_the_model_holding_its_first_index():
    """A lockstep step's arrays are fold-major: in 8 rows of models 2 to 5,
    row 5 is model 4's. Rows that do not split into the folds name them all."""
    err = NumericsError("subject 's5': non-finite x", index=(5, 1), shape=(8, 3))
    assert str(tv._step_error(err, 2, 6, 1, 0)) == (
        "subject 's5': non-finite x (model 4, epoch 1, step 0, parameters already updated)")
    moved = tv._step_error(NumericsError("y", index=(0,), shape=(3,)), 0, 2, 0, 0)
    assert str(moved) == "y (models 0 to 1, epoch 0, step 0, before any parameter update)"
    assert (moved.index, moved.shape) == ((0,), (3,))
