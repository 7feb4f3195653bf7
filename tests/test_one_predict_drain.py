"""One drain per Predict call: each row group is one task.

``KRRSession.predict`` and ``predict_many`` insert one task per row
group of the streamed batches (``distance/build.py::_row_groups``) and
drain the runtime once, on every execution lane.  The task runs the
group's kernel blocks and their ``K·W`` products in the order and block
shapes of a block-by-block Predict, so predictions are bitwise that
reference and the ledger holds the same operation counts.
"""

import numpy as np
import pytest

from repro.distance.build import KernelBuilder, _row_groups
from repro.gwas.config import KRRConfig, ServeConfig
from repro.gwas.session import KRRSession
from repro.linalg.blas3 import gemm
from repro.precision.formats import Precision
from repro.serve.service import SERVE_PHASE, PredictionService

N_TRAIN, NS, NPH, N_CONF, TILE = 96, 40, 2, 3, 32
COHORTS = (20, 50, 30)
LANES = [("serial", 1), ("threaded", 2), ("process", 2)]


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


CASES = [(lane, confounded, batch_rows) for lane in LANES
         for confounded in (False, True) for batch_rows in (None, 64, 1)]
IDS = [f"{lane[0]}-{'conf' if confounded else 'snps'}-batch{batch_rows}"
       for lane, confounded, batch_rows in CASES]


def _groups(session, sizes):
    batch = session.config.predict_batch_rows
    if batch is not None:
        batch = max(1, batch // TILE) * TILE
    return batch, _row_groups(list(sizes), batch)


def _reference(session, genotypes, confounders, sizes):
    """Block by block: ``iter_cross_rows`` and ``blas3.gemm`` inline, with
    each block's operation count by compute precision."""
    cfg = session.config
    wp = cfg.precision_plan.working_precision
    batch, _ = _groups(session, sizes)
    builder = KernelBuilder(gamma=session.gamma_, tile_size=TILE,
                            snp_precision=cfg.snp_precision)
    predictions = np.empty((genotypes.shape[0], NPH))
    flops = {}
    for block in builder.iter_cross_rows(
            genotypes, session.training_genotypes_, confounders,
            session.training_confounders_, batch_rows=batch,
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
    _, groups = _groups(session, [g.shape[0]])
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
    _, groups = _groups(session, COHORTS)
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
