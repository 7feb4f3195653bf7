"""One drain per Predict call: each row group is one task.

``KRRSession.predict`` and ``predict_many`` insert one task per row
group of the streamed batches (``distance/build.py::_row_groups``) and
drain the runtime once, on every execution lane.  The task runs the
group's kernel blocks and their ``K·W`` products in the order and block
shapes of a block-by-block Predict, so predictions are bitwise that
reference and the ledger holds the same operation counts.  The groups
are cut to the drain's width (``Scheduler.lanes``), so a micro-batch
fills every lane it runs on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.build import KernelBuilder, _row_groups
from repro.gwas.config import KRRConfig, ServeConfig
from repro.gwas.session import KRRSession
from repro.linalg.blas3 import gemm
from repro.precision.formats import Precision
from repro.serve.service import SERVE_PHASE, PredictionService

N_TRAIN, NS, NPH, N_CONF, TILE = 96, 40, 2, 3, 32
COHORTS = (20, 50, 30)
LANES = {"serial": ("serial", 1), "threaded": ("threaded", 2),
         "threaded3": ("threaded", 3), "process": ("process", 2)}


def _data(seed, rows, confounded):
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 3, size=(rows, NS)).astype(np.int8)
    return g, rng.standard_normal((rows, N_CONF)) if confounded else None


@pytest.fixture
def session(request):
    (execution, workers), confounded, batch_rows = request.param
    g, c = _data(0, N_TRAIN, confounded)
    s = KRRSession(KRRConfig(tile_size=TILE, predict_batch_rows=batch_rows,
                             execution=execution, workers=workers))
    s.fit(g, np.random.default_rng(1).standard_normal((N_TRAIN, NPH)), c)
    yield s
    s.close()


CASES = [(lane, confounded, batch_rows) for lane in LANES.values()
         for confounded in (False, True) for batch_rows in (None, 64, 1)]
IDS = [f"{name}-{'conf' if confounded else 'snps'}-batch{batch_rows}"
       for name in LANES for confounded in (False, True)
       for batch_rows in (None, 64, 1)]


def _groups(session, sizes):
    lanes = session.runtime.scheduler.lanes(sum(sizes))
    return _row_groups(list(sizes), session.config.predict_batch_rows, TILE,
                       lanes)


def _reference(session, genotypes, confounders, sizes):
    """Block by block: ``iter_cross_rows`` and ``blas3.gemm`` inline, with
    each block's operation count by compute precision."""
    cfg = session.config
    wp = cfg.precision_plan.working_precision
    builder = KernelBuilder(gamma=session.gamma_, tile_size=TILE)
    predictions = np.empty((genotypes.shape[0], NPH))
    flops = {}
    for block in builder.iter_cross_rows(
            genotypes, session.training_genotypes_, confounders,
            session.training_confounders_, batch_rows=cfg.predict_batch_rows,
            cohort_rows=list(sizes)):
        predictions[block.rows] = gemm(block.kernel, session.weights_,
                                       precision=wp)
        mb = block.rows.stop - block.rows.start
        for prec, fl in [(Precision.INT8, 2.0 * mb * N_TRAIN * NS),
                         (Precision.FP32, 2.0 * mb * N_TRAIN * N_CONF
                          if confounders is not None else 0.0),
                         (wp, 2.0 * mb * N_TRAIN * NPH)]:
            if fl:
                flops[prec] = flops.get(prec, 0.0) + fl
    return predictions + session.y_means_[None, :], flops


@pytest.mark.parametrize("session", CASES, ids=IDS, indirect=True)
def test_predict_is_one_drain_with_one_task_per_group(session):
    g, c = _data(2, sum(COHORTS), session.training_confounders_ is not None)
    runs = session.runtime.runs_completed
    predictions = session.predict(g, c)
    assert session.runtime.runs_completed == runs + 1
    groups = _groups(session, [g.shape[0]])
    assert session.runtime.ledger["predict"].tasks == {
        "predict_group": len(groups)}
    reference, flops = _reference(session, g, c, [g.shape[0]])
    assert np.array_equal(predictions, reference)
    totals = session.runtime.ledger["predict"]
    assert totals.flops == sum(flops.values())
    assert totals.flops_by_precision == flops


@pytest.mark.parametrize("session", CASES, ids=IDS, indirect=True)
def test_a_micro_batch_is_one_drain_with_one_task_per_group(session):
    confounded = session.training_confounders_ is not None
    cohorts = [_data(3 + i, m, confounded) for i, m in enumerate(COHORTS)]
    runs = session.runtime.runs_completed
    answers = session.predict_many([g for g, _ in cohorts],
                                   [c for _, c in cohorts])
    assert session.runtime.runs_completed == runs + 1
    groups = _groups(session, COHORTS)
    assert session.runtime.ledger["predict"].tasks == {
        "predict_group": len(groups)}
    reference, flops = _reference(
        session, np.vstack([g for g, _ in cohorts]),
        np.vstack([c for _, c in cohorts]) if confounded else None, COHORTS)
    assert np.array_equal(np.vstack(answers), reference)
    assert session.runtime.ledger["predict"].flops_by_precision == flops


def test_fifty_one_request_micro_batches_are_fifty_drains():
    """A request wider than one batch is still one drain."""
    g, _ = _data(0, N_TRAIN, False)
    session = KRRSession(KRRConfig(tile_size=TILE, predict_batch_rows=TILE))
    session.fit(g, np.random.default_rng(1).standard_normal(N_TRAIN))
    request, _ = _data(4, 3 * TILE, False)
    service = PredictionService(session.export_model(),
                                config=ServeConfig(max_batch_requests=1),
                                autostart=False)
    futures = [service.submit(request) for _ in range(50)]
    service.start()
    for future in futures:
        future.result(timeout=60)
    serving = next(iter(service._sessions.values()))
    service.close()
    assert service.stats.batches == 50
    assert serving.runtime.runs_completed == 50
    assert serving.runtime.ledger[SERVE_PHASE].tasks == {"predict_group": 150}


# ----------------------------------------------------------------------
# row groups cut to the drain's width
# ----------------------------------------------------------------------
def _one_lane_groups(sizes, batch_rows):
    """The grouping of a one-lane drain: batches of ``batch_rows`` rows
    packed into groups of at most ``batch_rows`` rows."""
    limit = max(1, max(sizes, default=0) if batch_rows is None
                else batch_rows)
    groups, filled, start = [], limit, 0
    for m in sizes:
        for r0 in range(start, start + m, limit):
            rows = slice(r0, min(r0 + limit, start + m))
            if filled + rows.stop - r0 > limit:
                groups.append([])
                filled = 0
            groups[-1].append(rows)
            filled += rows.stop - r0
        start += m
    return groups


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.integers(0, 40), max_size=10),
       batch_rows=st.none() | st.integers(1, 48),
       lanes=st.integers(1, 8))
def test_row_groups_cut_whole_batches_to_the_lanes(sizes, batch_rows, lanes):
    groups = _row_groups(sizes, batch_rows, 1, lanes)
    batches = [rows for group in _one_lane_groups(sizes, batch_rows)
               for rows in group]
    # the groups partition the rows in order, and no batch is split
    assert [rows for group in groups for rows in group] == batches
    assert all(group for group in groups)
    cut = max(1, max(sizes, default=0) if batch_rows is None else batch_rows)
    for group in groups:
        held = sum(rows.stop - rows.start for rows in group)
        assert held <= cut or len(group) == 1
    assert _row_groups(sizes, batch_rows, 1, 1) == _one_lane_groups(
        sizes, batch_rows)
    assert len(groups) >= min(lanes, len(batches))


def _fitted(execution, workers):
    g, _ = _data(0, N_TRAIN, False)
    s = KRRSession(KRRConfig(tile_size=TILE, execution=execution,
                             workers=workers))
    s.fit(g, np.random.default_rng(1).standard_normal((N_TRAIN, NPH)))
    return s


def test_a_micro_batch_fills_both_threaded_lanes_bitwise():
    """Eight one-tile cohorts on two threads: two groups of four in one
    drain, each cohort bitwise its solo ``predict`` and the serial
    session's micro-batch; a serial runtime of two workers keeps them in
    one group."""
    rng = np.random.default_rng(5)
    cohorts = [rng.integers(0, 3, size=(TILE, NS)).astype(np.int8)
               for _ in range(8)]
    threaded, serial = _fitted("threaded", 2), _fitted("serial", 2)
    try:
        assert serial.runtime.workers == 2
        runs = threaded.runtime.runs_completed
        answers = threaded.predict_many(cohorts)
        assert threaded.runtime.runs_completed == runs + 1
        assert threaded.runtime.ledger["predict"].tasks == {
            "predict_group": 2}
        serial_answers = serial.predict_many(cohorts)
        assert serial.runtime.ledger["predict"].tasks == {
            "predict_group": 1}
        for answer, cohort, at_serial in zip(answers, cohorts,
                                             serial_answers):
            assert np.array_equal(answer, threaded.predict(cohort))
            assert np.array_equal(answer, at_serial)
    finally:
        threaded.close()
        serial.close()


def test_eight_tile_cohorts_run_one_snp_gram_per_lane(monkeypatch):
    """The two-thread twin of the serial eight-tile-cohort Gram count in
    ``tests/gwas/test_session.py::TestPredictMany``: one exact Gram per
    lane."""
    from repro.distance import build

    rng = np.random.default_rng(7)
    g_train = rng.integers(0, 3, size=(512, 128)).astype(np.int8)
    y = rng.standard_normal((512, 3))
    session = KRRSession(KRRConfig(tile_size=64, execution="threaded",
                                   workers=2))
    try:
        session.fit(g_train, y)
        rng = np.random.default_rng(15)
        cohorts = [rng.integers(0, 3, size=(64, 128)).astype(np.int8)
                   for _ in range(8)]
        refs = [session.predict(c) for c in cohorts]
        rows = []
        real = build.gemm_mixed

        def counting(a, b, **kw):
            rows.append(a.shape[0])
            return real(a, b, **kw)

        monkeypatch.setattr(build, "gemm_mixed", counting)
        outs = session.predict_many(cohorts)
    finally:
        session.close()
    assert rows == [256, 256]
    assert all(np.array_equal(o, r) for o, r in zip(outs, refs))
