import csv
import hashlib
import math
import os
import warnings
from unittest import mock

import _reference_ingest as reference_ingest
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackattn import data as data_module
from trackattn.data import (Dataset, GeneSample, SignalMatrix, SynthSpec, binarize_labels,
                            dataset_to_csv, load_dataset, load_relevance, read_map_csv,
                            restrict_marks, save_dataset, save_pack, save_relevance, split,
                            synth_generate)
from trackattn.errors import ContractError, IngestionError

FIXTURE = """\
gene_id,bin,h_one,h_two,expression
gA,0,1.0,4.0,7.5
gA,1,2.0,5.0,7.5
gB,0,0.5,0.25,2.0
gA,2,3.0,6.0,7.5
gB,2,0.125,0.0,2.0
gB,1,0.75,1.5,2.0
"""


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_places_values_by_mark_row_and_bin_column(tmp_path):
    ds = load_dataset(write(tmp_path, FIXTURE), n_bins=3)
    assert ds.mark_names == ["h_one", "h_two"]
    assert len(ds) == 2
    assert ds.gene_ids == ["gA", "gB"]
    np.testing.assert_array_equal(ds.x, [[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
                                         [[0.5, 0.75, 0.125], [0.25, 1.5, 0.0]]])
    np.testing.assert_array_equal(ds.expression, [7.5, 2.0])
    assert ds.labels is None


def test_load_arcsinh_flag(tmp_path):
    ds = load_dataset(write(tmp_path, FIXTURE), n_bins=3, arcsinh=True)
    np.testing.assert_allclose(ds.x[0, 0], np.arcsinh([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("mutation,expected_line,fragment", [
    ("gA,9,1.0,1.0,7.5", 8, "bin 9"),
    ("gA,1,1.0,1.0,7.5", 8, "duplicate"),
    ("gB,1,-0.5,1.0,2.0", 8, "negative"),
    ("gA,0,oops,1.0,7.5", 8, "non-numeric"),
])
def test_load_errors_cite_offending_line(tmp_path, mutation, expected_line, fragment):
    text = FIXTURE + mutation + "\n"
    with pytest.raises(IngestionError) as err:
        load_dataset(write(tmp_path, text), n_bins=3)
    assert f"line {expected_line}" in str(err.value)
    assert fragment in str(err.value)


def test_load_inconsistent_expression_cites_line(tmp_path):
    text = "gene_id,bin,m,expression\ngC,0,1.0,5.0\ngC,1,1.0,6.0\ngC,2,1.0,5.0\n"
    with pytest.raises(IngestionError) as err:
        load_dataset(write(tmp_path, text), n_bins=3)
    assert "line 3" in str(err.value)
    assert "inconsistent expression" in str(err.value)


def test_load_missing_bins_names_gene(tmp_path):
    text = FIXTURE.replace("gB,1,0.75,1.5,2.0\n", "")
    with pytest.raises(IngestionError) as err:
        load_dataset(write(tmp_path, text), n_bins=3)
    assert "gB" in str(err.value) and "missing bins" in str(err.value)


@pytest.mark.parametrize("gene", ["gB", '"gB"'])    # plain, and through the csv reader
def test_load_missing_bins_cites_the_genes_first_row(tmp_path, gene):
    # the genes interleave, and gB's first row (line 3) holds its bin 2
    text = ("gene_id,bin,m,expression\n"
            f"gA,0,1.0,1.0\n{gene},2,1.0,2.0\ngA,1,1.0,1.0\n"
            f"{gene},0,1.0,2.0\ngA,2,1.0,1.0\n")
    with pytest.raises(IngestionError) as err:
        load_dataset(write(tmp_path, text), n_bins=3)
    assert str(err.value) == "line 3: gene 'gB' is missing bins [1]"


def test_load_bounds_n_bins_by_the_file_size(tmp_path):
    # records of the fewest bytes a valid file can hold: an empty gene id,
    # one-character numbers and no final line break
    rows = [f",{b},0,1" for b in range(10)] + [f"g,{b},0,2" for b in range(10)]
    path = write(tmp_path, "gene_id,bin,m,expression\n" + "\n".join(rows))
    assert len(load_dataset(path, n_bins=10)) == 2
    with pytest.raises(IngestionError, match=r"n_bins = 1000000000000 does not fit"):
        load_dataset(path, n_bins=10**12)
    with pytest.raises(IngestionError, match=r"line 2: bin 0 outside \[0, 0\)"):
        load_dataset(path, n_bins=0)
    with pytest.raises(IngestionError, match=r"line 2: bin 0 outside \[0, -5\)"):
        load_dataset(path, n_bins=-5)


def test_load_empty_file(tmp_path):
    with pytest.raises(IngestionError) as err:
        load_dataset(write(tmp_path, ""), n_bins=3)
    assert "no samples" in str(err.value)
    with pytest.raises(IngestionError) as err:
        load_dataset(write(tmp_path, "gene_id,bin,m,expression\n"), n_bins=3)
    assert "no samples" in str(err.value)


def test_load_rejects_bad_header(tmp_path):
    with pytest.raises(IngestionError):
        load_dataset(write(tmp_path, "gene,bin,m,expression\nx,0,1,2\n"), n_bins=1)


def test_round_trip_is_lossless(tmp_path):
    ds, _ = synth_generate(SynthSpec(n_genes=7, n_marks=3, n_bins=11, informative_lo=2,
                                     informative_hi=5, seed=5))
    path = str(tmp_path / "synth.csv")
    save_dataset(path, ds)
    back = load_dataset(path, n_bins=11)
    assert back.mark_names == ds.mark_names
    assert back.gene_ids == ds.gene_ids
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.expression, ds.expression)
    assert dataset_to_csv(back) == dataset_to_csv(ds)


def make_expr_dataset(exprs):
    n = len(exprs)
    return Dataset.from_arrays([f"g{i}" for i in range(n)], np.zeros((n, 1, 2)), ["m"], exprs)


def test_binarize_odd_count():
    ds = binarize_labels(make_expr_dataset([1, 2, 3, 4, 5]))
    assert ds.labels.tolist() == [-1, -1, -1, 1, 1]


def test_binarize_all_equal():
    ds = binarize_labels(make_expr_dataset([4, 4, 4]))
    assert ds.labels.tolist() == [-1, -1, -1]


def test_binarize_even_count_uses_lower_middle():
    ds = binarize_labels(make_expr_dataset([10, 20]))
    assert ds.labels.tolist() == [-1, 1]


def test_binarize_requires_expression():
    # one record without expression leaves the packed dataset without any
    ds = Dataset([GeneSample("g0", SignalMatrix(np.zeros((1, 2))), expression_raw=1.0),
                  GeneSample("g1", SignalMatrix(np.zeros((1, 2))))], ["m"], 2)
    assert ds.expression is None
    with pytest.raises(ContractError):
        binarize_labels(ds)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=60, unique=True))
def test_binarize_balance_with_distinct_expressions(exprs):
    ds = binarize_labels(make_expr_dataset(exprs))
    labels = ds.labels.tolist()
    assert abs(labels.count(1) - labels.count(-1)) <= 1


def dummy_dataset(n):
    return Dataset.from_arrays([f"g{i}" for i in range(n)], np.zeros((n, 1, 1)), ["m"],
                               np.zeros(n), np.ones(n))


def test_split_matches_published_sizes():
    train, val, test = split(dummy_dataset(19802), (1 / 3, 1 / 3, 1 / 3), seed=0)
    assert (len(train), len(val), len(test)) == (6601, 6601, 6600)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=400), st.integers(min_value=0, max_value=2**32 - 1))
def test_split_partitions_cover_and_are_disjoint(n, seed):
    parts = split(dummy_dataset(n), (0.5, 0.25, 0.25), seed=seed)
    ids = [g for p in parts for g in p.gene_ids]
    assert len(ids) == n
    assert len(set(ids)) == n


def test_split_is_deterministic():
    ds = dummy_dataset(50)
    a = split(ds, (0.6, 0.4), seed=9)
    b = split(ds, (0.6, 0.4), seed=9)
    assert [p.gene_ids for p in a] == [p.gene_ids for p in b]
    c = split(ds, (0.6, 0.4), seed=10)
    assert [p.gene_ids for p in a] != [p.gene_ids for p in c]


def test_split_validates_fractions():
    with pytest.raises(ContractError):
        split(dummy_dataset(10), (0.5, -0.5, 1.0), seed=0)
    with pytest.raises(ContractError):
        split(dummy_dataset(10), (0.5, 0.2), seed=0)


def test_synth_is_deterministic():
    spec = SynthSpec(n_genes=20, seed=42)
    a, rel_a = synth_generate(spec)
    b, rel_b = synth_generate(spec)
    assert np.array_equal(rel_a, rel_b)
    assert a.gene_ids == b.gene_ids and np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.x, b.x)


def test_synth_effect_raises_window_mean_by_effect():
    spec = SynthSpec(n_genes=2000, n_marks=5, n_bins=100, informative_mark=0,
                     informative_lo=45, informative_hi=55, effect=3.0, noise_scale=1.0, seed=7)
    ds, rel = synth_generate(spec)
    x, y = ds.x, ds.labels
    window = x[:, 0, 45:56].mean(axis=1)
    gap = window[y == 1].mean() - window[y == -1].mean()
    assert gap == pytest.approx(3.0, abs=0.1)
    assert rel[0, 45:56].sum() == 11 and rel.sum() == 11


def test_synth_null_effect_is_label_independent():
    ds, _ = synth_generate(SynthSpec(n_genes=2000, effect=0.0, seed=8))
    x, y = ds.x, ds.labels
    window = x[:, 0, 45:56].mean(axis=1)
    assert abs(window[y == 1].mean() - window[y == -1].mean()) < 0.1


def _pair_count_auc(scores, labels):
    pos = scores[labels == 1][:, None]
    neg = scores[labels == -1][None, :]
    return float(((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size / 1))


def test_synth_window_mean_is_highly_predictive():
    # a monotone model over the window mean (equivalent in AUC terms to a
    # fitted logistic regression on that single feature) must separate well
    ds, _ = synth_generate(SynthSpec(n_genes=2000, effect=3.0, seed=9))
    x, y = ds.x, ds.labels
    scores = x[:, 0, 45:56].mean(axis=1)
    pos = scores[y == 1][:, None]
    neg = scores[y == -1][None, :]
    auc = ((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.shape[0] * neg.shape[1])
    assert auc > 0.9


def test_synth_spec_validation():
    with pytest.raises(ContractError):
        SynthSpec(n_genes=0)
    with pytest.raises(ContractError):
        SynthSpec(n_genes=5, informative_mark=9)
    with pytest.raises(ContractError):
        SynthSpec(n_genes=5, informative_lo=90, informative_hi=100)
    # nan < 0 is False: each value is checked for finiteness first
    for field in ("effect", "noise_scale"):
        for value in (-1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ContractError, match=f"^{field} must be finite"):
                SynthSpec(n_genes=5, **{field: value})


def test_restrict_marks():
    ds, _ = synth_generate(SynthSpec(n_genes=4, n_marks=5, n_bins=6, informative_lo=1,
                                     informative_hi=2, seed=1))
    same = restrict_marks(ds, range(5))
    assert same.mark_names == ds.mark_names
    np.testing.assert_array_equal(same.x, ds.x)

    one = restrict_marks(ds, [3])
    assert one.n_marks == 1 and one.mark_names == ["mark_3"]
    np.testing.assert_array_equal(one.x[:, 0], ds.x[:, 3])

    swapped = restrict_marks(ds, (2, 0))
    assert swapped.mark_names == ["mark_2", "mark_0"]
    np.testing.assert_array_equal(swapped.x[:, 1], ds.x[:, 0])

    with pytest.raises(ContractError):
        restrict_marks(ds, [])
    with pytest.raises(ContractError):
        restrict_marks(ds, [0, 5])
    with pytest.raises(ContractError):
        restrict_marks(ds, [1, 1])


def test_gene_sample_label_contract():
    # signals are checked as input records are packed into arrays
    for values in ([[-0.5]], [[np.nan]]):
        with pytest.raises(ContractError):
            Dataset([GeneSample("g", SignalMatrix(np.array(values)))], ["m"], 1)
    assert Dataset.from_arrays(["g"], np.zeros((1, 1, 1)), ["m"], labels=[1]).labels == [1]
    with pytest.raises(ContractError):
        Dataset.from_arrays(["g"], np.zeros((1, 1, 1)), ["m"], labels=[2])
    with pytest.raises(ContractError):
        Dataset.from_arrays(["g"], np.full((1, 1, 1), np.inf), ["m"])


def test_dataset_rejects_duplicate_gene_ids():
    sample = GeneSample("gX", SignalMatrix(np.zeros((1, 2))), expression_raw=0.0)
    clone = GeneSample("gX", SignalMatrix(np.ones((1, 2))), expression_raw=1.0)
    with pytest.raises(ContractError, match="duplicate gene_id 'gX'"):
        Dataset([sample, clone], ["m"], 2)
    with pytest.raises(ContractError, match="duplicate gene_id 'gX'"):
        Dataset.from_arrays(["gY", "gX", "gX"], np.zeros((3, 1, 2)), ["m"])


def test_dataset_rejects_inconsistent_shapes():
    good = GeneSample("g1", SignalMatrix(np.zeros((2, 3))), expression_raw=0.0)
    bad = GeneSample("g2", SignalMatrix(np.zeros((2, 4))), expression_raw=0.0)
    with pytest.raises(ContractError):
        Dataset([good, bad], ["a", "b"], 3)
    for ids, x, marks, expression in ((["g1"], np.zeros((1, 2, 3)), ["a"], None),
                                      (["g1", "g2"], np.zeros((1, 2, 3)), ["a", "b"], None),
                                      (["g1"], np.zeros((2, 3)), ["a", "b"], None),
                                      (["g1"], np.zeros((1, 2, 3)), ["a", "b"], [1.0, 2.0])):
        with pytest.raises(ContractError):
            Dataset.from_arrays(ids, x, marks, expression)


def test_relevance_round_trip(tmp_path):
    _, rel = synth_generate(SynthSpec(n_genes=2, n_marks=3, n_bins=7, informative_mark=1,
                                      informative_lo=2, informative_hi=4, seed=0))
    path = str(tmp_path / "rel.csv")
    save_relevance(path, rel)
    np.testing.assert_array_equal(load_relevance(path), rel)


# ------------------------------------------------ ingest against the row oracle

def _outcome(load, path, n_bins, arcsinh=False):
    """What a loader makes of a file, in comparable form: the dataset down
    to its float bits, or the IngestionError's message and line. Any other
    exception propagates and fails the calling test."""
    try:
        ds = load(path, n_bins, arcsinh)
    except IngestionError as err:
        return "error", str(err), err.line
    return ("ok", ds.mark_names, ds.gene_ids, ds.labels, ds.x.dtype, ds.x.shape,
            ds.x.tobytes(), ds.expression.astype("<f8").tobytes())


def assert_same_ingest(path, n_bins, arcsinh=False):
    # numpy warns where older versions read loosely ("5.0" into an int
    # column) and on a block without data: ingest must neither rely on
    # such a reading nor let the warning out
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        warnings.simplefilter("error", DeprecationWarning)
        got = _outcome(load_dataset, path, n_bins, arcsinh)
    assert got == _outcome(reference_ingest.load_dataset, path, n_bins, arcsinh)
    return got


def _quoted(text):
    return '"' + text.replace('"', '""') + '"'


# value-preserving spellings of a float, and of a bin index
FLOAT_TEXTS = [repr, lambda v: f" {v!r}\t", lambda v: f"{v:.17e}", lambda v: repr(v).upper()]
BIN_TEXTS = [str, lambda b: f" {b}", lambda b: f"0{b}", lambda b: f"+{b}"]
# ... and spellings that int() and float() accept and that must reach them
# through the csv path: numpy's reader refuses the underscores and the
# Arabic-Indic digits, and takes no number outside ASCII
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
RESPELT_FLOATS = [lambda v: ("-0_" if math.copysign(1, v) < 0 else "0_") + repr(abs(v)),
                  lambda v: repr(v).translate(ARABIC_INDIC), lambda v: f"\xa0{v!r}"]
RESPELT_BINS = [lambda b: f"0_{b}", lambda b: str(b).translate(ARABIC_INDIC)]
SPECIAL_SIGNALS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308]
CORRUPTIONS = ["none", "bin_text", "bin_range", "signal", "expression", "fields", "duplicate",
               "conflict", "missing", "mismatch", "blank_fields", "respell", "long_field"]


@st.composite
def dataset_files(draw):
    """Text of a dataset file, its n_bins, and whether its one corruption
    makes it certainly invalid (a mismatched expression on a one-bin gene
    is no mismatch, and deleting the only row of a gene leaves a valid
    file)."""
    n_marks = draw(st.integers(1, 3))
    n_bins = draw(st.integers(1, 4))
    # half the files are plain until corrupted: no quote and no CR, so
    # numpy's reader takes their blocks. In the others a NUL is an error
    # to Python 3.10's csv module, and text to later ones.
    plain = draw(st.booleans())
    ids = draw(st.lists(st.text(alphabet="gA0 é-" if plain else 'gA0 é,"\n-\0', max_size=4),
                        min_size=1, max_size=4, unique=True))
    signal = st.one_of(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                       st.sampled_from(SPECIAL_SIGNALS))
    expression = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from(SPECIAL_SIGNALS + [-1e308]))

    def spell(value, forms):
        return draw(st.sampled_from(forms))(value)

    def gene_field(gene_id):
        needs = any(c in gene_id for c in ',"\n')
        return _quoted(gene_id) if needs or (not plain and draw(st.booleans())) else gene_id

    records = []
    for gene_id in ids:
        expr = draw(expression)
        for b in range(n_bins):
            records.append([gene_field(gene_id), spell(b, BIN_TEXTS),
                            *(spell(draw(signal), FLOAT_TEXTS) for _ in range(n_marks)),
                            spell(expr, FLOAT_TEXTS)])
    records = draw(st.permutations(records))

    kinds = draw(st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=2))
    for kind in kinds:
        # a second corruption may land on the same row: which check wins
        r = draw(st.integers(0, len(records) - 1))
        row = records[r]
        # the ASCII separators 0x1c-0x1f and a non-ASCII letter are texts
        # that numpy's reader would read as numbers
        if kind == "bin_text":
            row[1] = draw(st.sampled_from(["x", "1.0", "", "0x1", "1e0", "1 2", "0\x1f", "Ǿ"]))
        elif kind == "bin_range":
            row[1] = draw(st.sampled_from([str(n_bins), "-1", str(10**30), f"{n_bins + 7}"]))
        elif kind == "signal":
            row[2 + draw(st.integers(0, n_marks - 1))] = draw(
                st.sampled_from(["nan", "inf", "-inf", "-1.5", "-5e-324", "abc", "", "\x1c1"]))
        elif kind == "expression":
            row[-1] = draw(st.sampled_from(["nan", "inf", "-inf", "x", ""]))
        elif kind == "fields":
            records[r] = row[:-1] if draw(st.booleans()) else row + ["0.5"]
        elif kind in ("duplicate", "conflict"):
            copy = row[:-1] + (["12345.5" if row[-1].strip() != "12345.5" else "0.25"]
                               if kind == "conflict" else row[-1:])
            records.insert(draw(st.integers(0, len(records))), copy)
        elif kind == "missing" and len(records) > 1:
            del records[r]
        elif kind == "mismatch":
            row[-1] = "12345.5" if row[-1].strip() != "12345.5" else "0.25"
        elif kind == "blank_fields":
            records.insert(draw(st.integers(0, len(records))), ["  "])
        elif kind == "respell":
            c = draw(st.integers(1, n_marks + 2))
            try:
                row[c] = (spell(int(row[1]), RESPELT_BINS) if c == 1
                          else spell(float(row[c]), RESPELT_FLOATS))
            except (ValueError, IndexError):
                pass    # an earlier corruption left no number there
        elif kind == "long_field":
            # on the last record, so in a later block than the first
            records[-1] = ["g" * (csv.field_size_limit() + 1)] + records[-1][1:]

    for _ in range(draw(st.integers(0, 3))):
        # a run of blank lines may fill a whole block
        at = draw(st.integers(0, len(records)))
        records[at:at] = [[]] * draw(st.integers(1, 5))
    header = ["gene_id", "bin", *(f"m{j}" for j in range(n_marks)), "expression"]
    lines = [",".join(fields) + draw(st.sampled_from(["\n"] if plain else ["\n", "\r\n"]))
             for fields in [header] + records]
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    kind = kinds[0] if len(kinds) == 1 else "several"
    must_fail = kind not in ("none", "mismatch", "respell", "several") and not (
        kind == "missing" and n_bins == 1)
    return "".join(lines), n_bins, must_fail


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest-fuzz")


@settings(max_examples=400)
@given(dataset_files(), st.integers(1, 5), st.booleans())
def test_ingest_matches_row_oracle(fuzz_dir, case, block_rows, arcsinh):
    # tiny blocks: every multi-row file spans several of them
    text, n_bins, must_fail = case
    path = fuzz_dir / "fuzz.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(data_module, "_BLOCK_ROWS", block_rows):
        got = assert_same_ingest(str(path), n_bins, arcsinh)
    if must_fail:
        assert got[0] == "error"


def _synth_rows(tmp_path, n_genes, n_marks=2, n_bins=100):
    ds, _ = synth_generate(SynthSpec(n_genes=n_genes, n_marks=n_marks, n_bins=n_bins,
                                     informative_lo=1, informative_hi=3, seed=4))
    path = tmp_path / "big.csv"
    save_dataset(str(path), ds)
    return path, path.read_text().splitlines(keepends=True)


def test_ingest_matches_row_oracle_across_full_size_blocks(tmp_path):
    # 25,000 records: four blocks of the default size
    path, lines = _synth_rows(tmp_path, 250)
    assert len(lines) - 1 > 3 * data_module._BLOCK_ROWS
    assert assert_same_ingest(str(path), 100, arcsinh=True)[0] == "ok"

    # the first error sits in the fourth block: a duplicate of a first-block
    # row, followed by a bad signal; every earlier block is clean
    first_bad = 3 * data_module._BLOCK_ROWS + 100
    lines.insert(first_bad, lines[5])
    fields = lines[first_bad + 50].split(",")
    lines.insert(first_bad + 50, ",".join(fields[:2] + ["-1.0"] + fields[3:]))
    path.write_text("".join(lines))
    kind, message, line = assert_same_ingest(str(path), 100)
    assert kind == "error" and "duplicate" in message and line == first_bad + 1
    assert "first at line 6" in message


@pytest.mark.parametrize("column,text", [
    # numpy's reader skips the ASCII separators 0x1c-0x1f as blanks, and
    # reads some letters outside ASCII as digits: "Ǿ" as 462
    (1, "0\x1f"), (1, "\x1c0"), (1, "Ǿ"), (1, "ǿ"), (2, "1\x1e"), (3, "\x1d2.0"),
    # int() and float() accept these: numpy's reader refuses the first
    # four, and takes no number outside ASCII
    (1, "0_0"), (1, "٠"), (2, "1_0.5"), (3, "٢.0"), (2, "\xa01.5"),
])
def test_texts_numpy_reads_otherwise_take_the_csv_path(tmp_path, column, text):
    rows = [["g", str(b), "1.5", "2.0"] for b in range(3)]
    rows[0][column] = text
    path = write(tmp_path, "gene_id,bin,m,expression\n" + "".join(",".join(r) + "\n"
                                                                for r in rows))
    assert_same_ingest(path, 3)


def test_clean_saved_file_is_read_by_numpy_alone(tmp_path):
    # a lost speed-up would not show in any result: every block of a file
    # save_dataset writes, and a block of blank lines, must take the C path
    path, lines = _synth_rows(tmp_path, 250)
    blocks = data_module._BLOCK_ROWS
    lines[1 + 2 * blocks:1 + 2 * blocks] = ["\n"] * blocks
    path.write_text("".join(lines))
    with mock.patch.object(data_module, "_csv_block", side_effect=AssertionError("csv tier")):
        ds = load_dataset(str(path), n_bins=100)
    assert len(ds) == 250
    assert assert_same_ingest(str(path), 100)[0] == "ok"


def test_ingest_reports_missing_bins_of_the_first_incomplete_gene(tmp_path):
    path, lines = _synth_rows(tmp_path, 120)
    # line 1 is the header; gene g's bin b is on line 2 + 100 g + b
    del lines[1 + 100 * 90 + 39]               # gene 90, bin 39
    del lines[1 + 100 * 30 + 6: 1 + 100 * 30 + 14]   # gene 30, bins 6..13
    path.write_text("".join(lines))
    kind, message, line = assert_same_ingest(str(path), 100)
    assert kind == "error" and line == 2 + 100 * 30
    assert message.endswith("missing bins [6, 7, 8, 9, 10]...")


@pytest.mark.parametrize("load", [lambda p: load_dataset(p, n_bins=1), load_relevance])
def test_readers_turn_undecodable_bytes_and_oversized_fields_into_ingestion_errors(tmp_path,
                                                                                   load):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"gene_id,bin,m,expression\ng\xff,0,1.0,2.0\n")
    with pytest.raises(IngestionError, match="not UTF-8"):
        load(str(path))
    path.write_text("h" * 200_000 + "\n")
    with pytest.raises(IngestionError, match="malformed CSV record"):
        load(str(path))


def test_bad_row_before_an_oversized_field_fails_first(tmp_path):
    # both rows fall in one block; the csv module refuses the second
    path = write(tmp_path, "gene_id,bin,m,expression\ng,9,1.0,2.0\n"
                           + "g" * (csv.field_size_limit() + 1) + ",0,1.0,2.0\n")
    kind, message, line = assert_same_ingest(path, 1)
    assert (kind, line) == ("error", 2) and "bin 9 outside" in message


# -------------------------------------------------------- writer round trip

@pytest.mark.parametrize("bad", [",", '"', "\r", "\n"])
def test_writer_rejects_names_it_cannot_write(tmp_path, bad):
    ds, _ = synth_generate(SynthSpec(n_genes=3, n_marks=2, n_bins=4, informative_lo=1,
                                     informative_hi=2, seed=1))
    ds.gene_ids[1] = f"g{bad}1"
    with pytest.raises(ContractError, match="comma, quote or line break"):
        dataset_to_csv(ds)
    with pytest.raises(ContractError, match="comma, quote or line break"):
        save_dataset(str(tmp_path / "out.csv"), ds)
    assert list(tmp_path.iterdir()) == []
    ds.gene_ids[1] = "g1"
    ds.mark_names[0] = f"m{bad}"
    with pytest.raises(ContractError, match="comma, quote or line break"):
        dataset_to_csv(ds)


@settings(max_examples=60)
@given(st.lists(st.text(st.characters(codec="utf-8", exclude_characters=',"\r\n'), max_size=6),
                min_size=1, max_size=4, unique=True),
       st.text(st.characters(codec="utf-8", exclude_characters=',"\r\n'), max_size=6))
def test_writer_names_round_trip(fuzz_dir, gene_ids, mark_name):
    n = len(gene_ids)
    x = np.repeat(np.arange(n) + 0.5, 2).reshape(n, 1, 2)
    ds = Dataset.from_arrays(gene_ids, x, [mark_name], np.arange(n, dtype=np.float64))
    path = str(fuzz_dir / "names.csv")
    save_dataset(path, ds)
    back = load_dataset(path, n_bins=2)
    assert back.gene_ids == gene_ids and back.mark_names == [mark_name]
    assert dataset_to_csv(back) == dataset_to_csv(ds)


# ------------------------------------------------------ mark,bin,<value> maps

@pytest.mark.parametrize("rows,line,fragment", [
    ("-1,0,1.0\n", 2, "negative mark or bin"),
    ("0,0,1.0\n1,-1,1.0\n", 3, "negative mark or bin"),
    ("0,0,1.0\n0,1,0.5\n0,0,2.0\n", 4, "duplicate cell (0, 0); first at line 2"),
    ("0,0,nan\n", 2, "non-finite relevance"),
    ("0,0,1.0\n0,1,-inf\n", 3, "non-finite relevance"),
    ("0,0,1.0,9\n", 2, "expected 3 fields"),
    ("0,x,1.0\n", 2, "malformed relevance row"),
    ("", None, "no relevance entries"),
])
def test_relevance_reader_is_strict(tmp_path, rows, line, fragment):
    path = write(tmp_path, "mark,bin,relevance\n" + rows, "rel.csv")
    with pytest.raises(IngestionError) as err:
        load_relevance(path)
    assert err.value.line == line and fragment in str(err.value)


def test_map_reader_checks_header_and_leaves_unnamed_cells_zero(tmp_path):
    path = write(tmp_path, "mark,bin,alpha_mean\n\n1,2,0.5\r\n", "map.csv")
    np.testing.assert_array_equal(read_map_csv(path), [[0, 0, 0], [0, 0, 0.5]])
    with pytest.raises(IngestionError, match="line 1: .*mark,bin,relevance"):
        load_relevance(path)
    with pytest.raises(IngestionError, match="line 1"):
        read_map_csv(write(tmp_path, "mark,value\n0,1\n", "bad.csv"))


# ------------------------------------------- data-layer bytes, pinned by digest

def _digest(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode("utf-8")).hexdigest()


def _pinned_dataset():
    return synth_generate(SynthSpec(n_genes=37, n_marks=3, n_bins=7, informative_mark=1,
                                    informative_lo=2, informative_hi=4, seed=3))[0]


# Recorded from the per-gene-object data layer; the array layer must
# reproduce every byte.
CSV_DIGEST = "ec88db457ce382d9f749736c8aa79ad5cb32fe46095a358fdc54090f68e46451"
RESTRICTED_DIGEST = "232b0941349cdf0ae2b5a5cb16b60a4e32b5fcd490382f2f12d137ea97481783"
SPLIT_DIGESTS = [
    ((1 / 3, 1 / 3, 1 / 3), ["28937156101bc68f83d0dce47b3158b87403bbabe1b278f174bb1dd3561fb08f",
                             "769d72932fc08d93160aef8764eeeb94cb6bf02a64b5431ee6527186c2af7191",
                             "32fa9a076a1b5fe9bf3de7bd9e167bde4b205fc3570fb3318811e929f91ea20a"]),
    ((0.5, 0.3, 0.2), ["4ceb4e01ad66d83b67816cfff87e4915cf3fc78a485d9fb48562ea1fb962618c",
                       "f92b926222b7b72beba7dd23742eb22027aee386a5ad5a8a1113066f9477eb30",
                       "1c21d96533653e7a07a77a140424db642a9b7e25dafdbedef720525336cf85bd"]),
]
LABEL_DIGESTS = [(11, "6d923cc236e4f33b29247b75c0deab894fc3895803bbb96afa9a06c429052e59"),
                 (12, "a8eaa330a697ceb6df46514416d19ea5b86d82f9a62bda44f46a83694339da1a")]


def test_dataset_csv_bytes_match_recorded_digest():
    assert _digest(dataset_to_csv(_pinned_dataset())) == CSV_DIGEST


def test_restrict_marks_bytes_match_recorded_digest():
    assert _digest(dataset_to_csv(restrict_marks(_pinned_dataset(), [2, 0]))) == RESTRICTED_DIGEST


@pytest.mark.parametrize("fractions,digests", SPLIT_DIGESTS)
def test_split_gene_ids_match_recorded_digests(fractions, digests):
    parts = split(_pinned_dataset(), fractions, seed=4)
    assert [_digest("\n".join(p.gene_ids)) for p in parts] == digests


@pytest.mark.parametrize("n,digest", LABEL_DIGESTS)
def test_binarized_labels_match_recorded_digest(tmp_path, n, digest):
    # expression values repeat, so the median itself is tied
    rows = "".join(f"g{i},0,0.0,{(7 * i) % 5}.5\n" for i in range(n))
    ds = binarize_labels(load_dataset(write(tmp_path, "gene_id,bin,m,expression\n" + rows), 1))
    assert _digest(ds.labels.astype("<i8").tobytes()) == digest


# ---------------------------------------------- the writer and dataset packs

_NAME_CHARS = st.characters(codec="utf-8", exclude_characters=',"\r\n')
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-05, 1e16]


@st.composite
def small_datasets(draw):
    """Datasets the writer can write: edge-case floats, non-ASCII names."""
    n, m, t = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(0, 1e300))
    x = np.array(draw(st.lists(cells, min_size=n * m * t, max_size=n * m * t))).reshape(n, m, t)
    expression = draw(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS),
                                         st.floats(allow_nan=False, allow_infinity=False)),
                               min_size=n, max_size=n))
    gene_ids = draw(st.lists(st.text(_NAME_CHARS, min_size=1, max_size=5),
                             min_size=n, max_size=n, unique=True))
    mark_names = draw(st.lists(st.text(_NAME_CHARS, max_size=5), min_size=m, max_size=m))
    return Dataset.from_arrays(gene_ids, x, mark_names, expression)


def _fmt_writer_text(dataset):
    """The writer as it was when it formatted every cell with
    ``repr(float(v))``, kept as the reference for the text it writes."""
    def fmt(v):
        return repr(float(v))
    text = "gene_id,bin," + ",".join(dataset.mark_names) + ",expression\n"
    for gene_id, expr, x in zip(dataset.gene_ids, dataset.expression.tolist(), dataset.x):
        expr = fmt(expr)
        text += "".join(f"{gene_id},{b},{','.join(map(fmt, cells))},{expr}\n"
                        for b, cells in enumerate(x.T.tolist()))
    return text


@settings(max_examples=100)
@given(small_datasets())
@example(Dataset.from_arrays(["g\u00e9ne", "\u57fa\u56e0"],
                             np.array([-0.0, 5e-324, 1e-05, 1e16] * 2).reshape(2, 2, 2),
                             ["m\u00e4rk", "m"], [-0.0, 1e16]))
def test_writer_text_matches_the_per_cell_formatter(ds):
    assert dataset_to_csv(ds) == _fmt_writer_text(ds)


@settings(max_examples=60)
@given(ds=small_datasets(), arcsinh=st.booleans())
def test_pack_loads_to_the_parsed_datasets_bits(fuzz_dir, ds, arcsinh):
    path, pack = str(fuzz_dir / "packed.csv"), str(fuzz_dir / "dataset.pack")
    save_dataset(path, ds)
    parsed = load_dataset(path, ds.n_bins, arcsinh)
    save_pack(pack, parsed)
    with mock.patch.object(data_module, "_parse_dataset", side_effect=AssertionError("parsed")):
        packed = load_dataset(path, ds.n_bins, arcsinh, pack=pack)
    assert packed.gene_ids == parsed.gene_ids and packed.mark_names == parsed.mark_names
    assert packed.x.tobytes() == parsed.x.tobytes()
    assert packed.expression.tobytes() == parsed.expression.tobytes()
    assert packed.pack_key == parsed.pack_key
    assert packed.x.flags.writeable and packed.expression.flags.writeable


def test_pack_of_another_load_is_not_read(tmp_path):
    # same file, another n_bins or arcsinh: the file is parsed, and gives
    # what it gives without the pack, an error included
    path, pack = str(tmp_path / "d.csv"), str(tmp_path / "dataset.pack")
    save_dataset(path, _pinned_dataset())
    save_pack(pack, load_dataset(path, 7))
    parse = mock.Mock(wraps=data_module._parse_dataset)
    with mock.patch.object(data_module, "_parse_dataset", parse):
        for n_bins, arcsinh in ((7, True), (6, False), (8, False)):
            def load(path, n_bins, arcsinh):
                return load_dataset(path, n_bins, arcsinh, pack=pack)
            assert (_outcome(load, path, n_bins, arcsinh)
                    == _outcome(load_dataset, path, n_bins, arcsinh))
    assert parse.call_count == 6


# edits of a valid pack's header that keep its JSON and its key
PACK_HEADER_EDITS = {
    "float_shape": lambda head: head.replace(b'"shape":[37,3,7]', b'"shape":[37.0,3,7]'),
    "exponent_shape": lambda head: head.replace(b'"shape":[37,3,7]', b'"shape":[3.7e1,3,7]'),
    "bool_arcsinh": lambda head: head.replace(b'"arcsinh":false', b'"arcsinh":0'),
    "float_n_bins": lambda head: head.replace(b'"n_bins":7', b'"n_bins":7.0'),
    "gene_ids_object": lambda head: head.replace(b'"gene_ids":[', b'"gene_ids":{"g":[') + b"}",
    "renamed_gene": lambda head: head.replace(b'"g00000"', b'"g00099"'),
    "not_an_object": lambda head: b"[" + head + b"]",
}


@pytest.mark.parametrize("edit", sorted(PACK_HEADER_EDITS))
def test_pack_with_an_edited_header_is_not_read(tmp_path, edit):
    path, pack = str(tmp_path / "d.csv"), tmp_path / "dataset.pack"
    save_dataset(path, _pinned_dataset())
    save_pack(str(pack), load_dataset(path, 7))
    magic, head, payload = pack.read_bytes().split(b"\n", 2)
    edited = PACK_HEADER_EDITS[edit](head)
    assert edited != head
    pack.write_bytes(b"\n".join([magic, edited, payload]))
    parse = mock.Mock(wraps=data_module._parse_dataset)
    with mock.patch.object(data_module, "_parse_dataset", parse):
        def load(path, n_bins, arcsinh):
            return load_dataset(path, n_bins, arcsinh, pack=str(pack))
        assert _outcome(load, path, 7) == _outcome(load_dataset, path, 7)
    assert parse.call_count == 2


def test_pack_is_keyed_by_the_files_bytes(tmp_path):
    # an edit that keeps the file's size and mtime is still seen
    path, pack = tmp_path / "d.csv", str(tmp_path / "dataset.pack")
    save_dataset(str(path), _pinned_dataset())
    save_pack(pack, load_dataset(str(path), 7))
    stat = path.stat()
    head, first, rest = path.read_text().split("\n", 2)
    gene_id, b, signal, tail = first.split(",", 3)
    signal = str(int(signal[0]) + 1) + signal[1:]
    path.write_text("\n".join([head, ",".join([gene_id, b, signal, tail]), rest]))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    assert load_dataset(str(path), 7, pack=pack).x[0, 0, int(b)] == float(signal)


def test_pack_without_a_key_is_refused(tmp_path):
    with pytest.raises(ContractError, match="load_dataset"):
        save_pack(str(tmp_path / "dataset.pack"), _pinned_dataset())
