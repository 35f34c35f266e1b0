"""The benchmark's calls into algaeid: the bench's own `corpus` and
`dense_field` workloads, read from `bench/` as they are, run one round and
pass their checks, so a library change that breaks a call the bench makes
fails here."""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    import workloads
    return workloads


def test_bench_corpus_runs_one_round(workloads, tmp_path):
    corpus = workloads.Corpus(5, str(tmp_path))
    corpus.setup()
    assert [corpus.run(op) for op in corpus.ops] == [True] * len(corpus.ops)
    assert corpus.check()[corpus.QUALITY] == 1.0


def test_bench_dense_field_runs_one_round(workloads, tmp_path):
    # two fields segment, featurize with their truth files and classify;
    # the last field's dead 530 nm band fails as degenerate
    field = workloads.DenseField(5, str(tmp_path))
    field.setup()
    assert [field.run(op) for op in field.ops] == [True, True, False]
    assert "degenerate" in field.results[field.ops[-1]]
    assert field.check()[field.QUALITY] == 1.0
