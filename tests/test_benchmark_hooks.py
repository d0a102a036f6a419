"""The benchmark's hooks into the program. ``perfbench`` wraps program
functions by name, where a renamed one only drops its per-layer metrics,
and writes its inputs through the program's dataset writer, where a
broken one fails every benchmark run at setup. These tests catch both in
the ordinary suite."""

import os
import sys

import numpy as np

from trackattn.data import load_dataset, load_relevance

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import inputs  # noqa: E402
import tracing  # noqa: E402


def test_tracing_finds_every_wrapped_name():
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, n_bins=12)
    finally:
        tracer.uninstall()
    assert tracer.missing == set()


def test_benchmark_inputs_read_back_bit_for_bit(tmp_path):
    planted = inputs.generate(inputs.TINY, seed=2)
    dataset, relevance = str(tmp_path / "dataset.csv"), str(tmp_path / "relevance.csv")
    inputs.write(planted, dataset, relevance)
    ds = load_dataset(dataset, n_bins=inputs.TINY.n_bins)
    assert ds.gene_ids == planted.gene_ids
    assert ds.x.tobytes() == planted.x.tobytes()
    assert ds.expression.tobytes() == planted.expression.tobytes()
    assert np.array_equal(load_relevance(relevance), planted.relevance)
