"""Paper fidelity, frozen: what the paper reports, recomputed on the mini-suite.

Every deletion and refactor of the labelling pipeline, the cost model or
the learners is accepted on "the reproduced numbers do not move".  These
tests make that check mechanical.  On the session mini-suite
(``mini_suite``/``mini_config`` in ``tests/conftest.py``) they pin, as
exact values, in both software-pipelining regimes:

* Figure 3: the filter counts and the label histogram
  (:func:`~repro.pipeline.labeling.stats_from_table`);
* Table 2: LOOCV accuracy and optimal-or-second-best rate of NN and SVM,
  the same two rates for ORC's hand heuristic, and the misprediction cost
  ladder;
* Figures 4 and 5: each benchmark's NN, SVM and oracle improvement over
  ORC from :func:`~repro.pipeline.evaluate_speedups`.

The values were recorded before the refactors they referee.  A change that
moves any of them changes what the reproduction reports, and must say so
and re-record them deliberately.  Halving a single jitter draw of the
labelling run, or raising one scheduler latency by a cycle, is enough to
fail this file.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.heuristics import ORCHeuristic
from repro.ml import (
    accuracy,
    loocv_nn,
    loocv_svm,
    near_optimal_accuracy,
    rank_distribution,
)
from repro.pipeline import EvaluationConfig, evaluate_speedups, measure_suite
from repro.pipeline.labeling import stats_from_table

#: ``(n_loops, below the cycle floor, flat, labelled, {label: count})``.
FIGURE3 = {
    False: (70, 0, 0, 70, {1: 6, 2: 15, 4: 27, 6: 1, 8: 21}),
    True: (70, 0, 21, 49, {1: 9, 2: 23, 3: 1, 4: 6, 5: 1, 6: 2, 8: 7}),
}

#: ``{predictor: (accuracy, optimal-or-second-best)}`` under LOOCV (ORC
#: needs no training).
TABLE2 = {
    False: {
        "nn": (0.4857142857142857, 0.6857142857142857),
        "svm": (0.4714285714285714, 0.7285714285714285),
        "orc": (0.38571428571428573, 0.5142857142857142),
    },
    True: {
        "nn": (0.3877551020408163, 0.46938775510204084),
        "svm": (0.3469387755102041, 0.46938775510204084),
        "orc": (0.46938775510204084, 0.5918367346938775),
    },
}

#: Mean cycles of the n-th best factor over the best, n = 1..8.
COST_LADDER = {
    False: (
        1.0, 1.082175232180765, 1.2008126142872093, 1.2977195822815348,
        1.3884958593844143, 1.513224771539955, 1.6593173654123001,
        2.051103150689985,
    ),
    True: (
        1.0, 1.0594756818529034, 1.109265331325908, 1.1987730638774412,
        1.303909945286445, 1.3690828133199935, 1.463146090365467,
        1.5995320807308775,
    ),
}

#: ``{benchmark: (nn, svm, oracle)}`` improvement over ORC (0.05 = 5%
#: faster), leave-one-benchmark-out.
SPEEDUPS = {
    False: {
        "168.wupwise": (0.20354312945737596, -0.09525087385110709, 0.22303977257499752),
        "164.gzip": (-0.018068834911370568, 0.001380842543126315, 0.03942812860420242),
        "110.applu95": (0.0279436110478124, -0.07806441916792084, 0.030506470058131674),
        "adpcm": (-0.026089235664154775, 0.06546479473137357, 0.09188723006114352),
        "perfect-adm": (0.035639431228933205, 0.03413882733895468, 0.050111228380654405),
        "kernels-blas1": (0.0053985791963713226, -0.0009718315265005995, 0.05148631723357089),
    },
    True: {
        "168.wupwise": (-0.00302665308090877, -0.0008001597645702629, 0.0027033554626656464),
        "164.gzip": (-0.03179691489515335, -0.009358173490725097, 0.04695445565723966),
        "110.applu95": (0.002317013601246698, -0.0007302409459933878, -0.0022680947864065493),
        "adpcm": (-0.04877219968795532, -0.04603729889189845, 0.05675615454499261),
        "perfect-adm": (0.0018869929753679848, 0.003520185114607166, 0.002652885196632093),
        "kernels-blas1": (0.0010301262465775007, -0.004076293983659496, 0.017199058255808586),
    },
}

REGIMES = pytest.mark.parametrize("swp", [False, True], ids=["swp_off", "swp_on"])


@pytest.fixture(scope="module")
def regimes(mini_suite, mini_config, mini_table):
    """``{swp: (config, table, dataset)}`` for both regimes."""
    out = {}
    for swp in (False, True):
        config = dataclasses.replace(mini_config, swp=swp)
        table = mini_table if not swp else measure_suite(mini_suite, config)
        out[swp] = (config, table, table.to_dataset(config.min_cycles, config.min_benefit))
    return out


@REGIMES
def test_figure3_label_histogram(regimes, swp):
    config, table, _ = regimes[swp]
    stats = stats_from_table(table, config)
    assert (
        stats.n_loops_total,
        stats.n_below_cycle_floor,
        stats.n_flat,
        stats.n_labeled,
        stats.labels_histogram,
    ) == FIGURE3[swp]


@REGIMES
def test_table2_accuracy(mini_suite, regimes, swp):
    _, _, dataset = regimes[swp]
    loops = {loop.name: loop for b in mini_suite.benchmarks for loop in b.loops}
    orc = ORCHeuristic(swp=swp)
    predictions = {
        "nn": loocv_nn(dataset),
        "svm": loocv_svm(dataset),
        "orc": np.array([orc.predict_loop(loops[str(n)]) for n in dataset.loop_names]),
    }
    rates = {
        name: (accuracy(dataset, p), near_optimal_accuracy(dataset, p))
        for name, p in predictions.items()
    }
    assert rates == TABLE2[swp]
    costs = rank_distribution(dataset, predictions["nn"]).costs
    assert tuple(float(c) for c in costs) == COST_LADDER[swp]


@REGIMES
def test_figures4_5_speedups_over_orc(mini_suite, regimes, swp):
    _, table, dataset = regimes[swp]
    names = tuple(b.name for b in mini_suite.benchmarks)
    report = evaluate_speedups(
        mini_suite, table, dataset, EvaluationConfig(swp=swp, benchmarks=names)
    )
    speedups = {
        r.benchmark: tuple(r.improvements[k] for k in ("nn", "svm", "oracle"))
        for r in report.results
    }
    assert speedups == SPEEDUPS[swp]
