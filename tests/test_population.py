import csv
import dataclasses
import itertools
import math
import re
import reprlib
import tracemalloc
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mmsim import population as population_mod
from mmsim.errors import (
    ConfigError,
    DataError,
    IntegrityError,
    ParseError,
    SchemaError,
    ValidationError,
)
from mmsim.population import (
    LABEL_FTF,
    LABEL_NAMES,
    LABEL_NONE,
    LABEL_WEB,
    MODE_FTF,
    MODE_MAIL,
    MODE_NAMES,
    MODE_WEB,
    MicrodataSchema,
    Population,
    StochasticLabels,
    SyntheticPopSpec,
    VariableSpec,
    attach_propensities,
    build_pseudopopulation,
    draw_stochastic_labels,
    estimate_icc,
    generate_synthetic,
    load_microdata,
    psu_frame_of,
    write_population_csv,
)
from mmsim.sampling import two_stage_select

from conftest import SMALL_SPEC, make_population, outcome_stores


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _write(tmp_path, text, name="pop.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _read(path, schema):
    """The population ``load_microdata`` reads, or the DataError it raises,
    and a fingerprint of it: every array's dtype, shape and bytes, or the
    error's type and message."""
    try:
        pop = load_microdata(path, schema)
    except DataError as exc:
        return exc, (type(exc), str(exc))
    arrays = (pop.psu_ids, pop.y, pop.modes, pop.labels)
    return pop, (pop.variable_names, *(
        None if a is None else (a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes())
        for a in arrays))


def _load(path, schema):
    """``load_microdata`` at the default chunk size, once 1-, 2- and 3-row
    chunks, which put every row, quoted newline and blank line on a chunk
    boundary, have given the same population or the same error."""
    result, want = _read(path, schema)
    for rows in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(population_mod, "_CHUNK_ROWS", rows)
            assert _read(path, schema)[1] == want, f"{rows}-row chunks"
    if isinstance(result, DataError):
        raise result
    return result


def test_load_three_rows(tmp_path):
    path = _write(tmp_path, "id,psu,mode,v1\n1,10,WEB,1.0\n2,10,MAIL,2.0\n3,20,FTF,3.0\n")
    pop = _load(path, MicrodataSchema(variables=("v1",)))
    assert pop.n_households == 3
    assert pop.labels is None
    assert list(pop.modes) == [MODE_WEB, MODE_MAIL, MODE_FTF]
    psus, sizes = pop.psu_frame()
    assert list(psus) == [10, 20] and list(sizes) == [2, 1]


def test_missing_column_is_schema_error(tmp_path):
    path = _write(tmp_path, "id,psu,mode\n1,1,WEB\n")
    with pytest.raises(SchemaError, match="v1"):
        _load(path, MicrodataSchema(variables=("v1",)))


def test_schema_column_named_twice_is_schema_error(tmp_path):
    path = _write(tmp_path, "id,psu,mode,v1,v1\n1,1,WEB,1.0,2.0\n")
    with pytest.raises(SchemaError, match="'v1' appears twice"):
        _load(path, MicrodataSchema(variables=("v1",)))


def test_bad_value_reports_line_number(tmp_path):
    path = _write(tmp_path, "id,psu,mode,v1\n1,1,WEB,1.0\n2,1,MAIL,oops\n")
    with pytest.raises(ParseError, match=":3"):
        _load(path, MicrodataSchema(variables=("v1",)))


def test_duplicate_id_is_integrity_error(tmp_path):
    path = _write(tmp_path, "id,psu,mode,v1\n1,1,WEB,1.0\n1,1,MAIL,2.0\n")
    with pytest.raises(IntegrityError, match=r"^pop\.csv:3: duplicate household id 1$"):
        _load(path, MicrodataSchema(variables=("v1",)))
    # the second copy in a later chunk of 1, 2 or 3 rows than the first
    rows = "".join(f"{i},1,WEB,1.0\n" for i in (5, 8, 2, 9, 6, 2, 7))
    with pytest.raises(IntegrityError, match=r"^pop\.csv:7: duplicate household id 2$"):
        _load(_write(tmp_path, "id,psu,mode,v1\n" + rows), MicrodataSchema(variables=("v1",)))


@settings(max_examples=60, deadline=None)
@given(psu_ids=st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(-3, 3), min_size=1,
                        max_size=80), presorted=st.booleans())
def test_psu_frame_fast_path_matches_numpy_unique(psu_ids, presorted):
    # Non-decreasing ids skip the sort; the frame must not tell the difference.
    if presorted:
        psu_ids = sorted(psu_ids)
    pop = make_population(np.zeros(len(psu_ids)), psu_ids)
    order, starts = population_mod._group(pop.psu_ids)
    np.testing.assert_array_equal(order, np.argsort(pop.psu_ids, kind="stable"))
    assert order.dtype == np.intp
    psus, sizes = pop.psu_frame()
    want_psus, want_codes = np.unique(pop.psu_ids, return_inverse=True)
    np.testing.assert_array_equal(psus, want_psus)
    np.testing.assert_array_equal(sizes, np.bincount(want_codes))
    np.testing.assert_array_equal(pop.psu_codes(), want_codes)
    np.testing.assert_array_equal(starts, np.append(np.cumsum(sizes) - sizes, len(psu_ids)))


_EXTREME_IDS = (st.integers(-2**63, -2**63 + 3) | st.integers(2**63 - 4, 2**63 - 1)
                | st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1))


@settings(max_examples=150, deadline=None)
@given(layout=st.sampled_from(["sorted", "grouped", "interleaved", "one-psu", "one-household"]),
       data=st.data())
def test_psu_frame_matches_numpy_unique(layout, data):
    # PSUs of 1-8 households, in ascending order, in groups out of order, or
    # with their households interleaved; one PSU; one household
    psus = data.draw(st.lists(_EXTREME_IDS, min_size=1, max_size=12, unique=True))
    psus = psus[:1] if layout in ("one-psu", "one-household") else psus
    sizes = [1] if layout == "one-household" else data.draw(
        st.lists(st.integers(1, 8), min_size=len(psus), max_size=len(psus)))
    ids = np.repeat(np.array(psus, dtype=np.int64), sizes)
    if layout == "sorted":
        ids.sort()
    elif layout == "interleaved":
        ids = np.array(data.draw(st.permutations(ids.tolist())), dtype=np.int64)
    pop = make_population(np.zeros(len(ids)), ids)
    got = pop.psu_ids
    assert got.dtype == np.int64 and got.tobytes() == ids.tobytes()
    want_psus, want_codes, want_sizes = np.unique(ids, return_inverse=True, return_counts=True)
    psus, sizes = pop.psu_frame()
    assert psus.dtype == np.int64 and psus.tobytes() == want_psus.tobytes()
    np.testing.assert_array_equal(sizes, want_sizes)
    np.testing.assert_array_equal(pop.psu_codes(), want_codes)
    # members are kept only for ids that decrease somewhere
    assert (pop.members is None) == bool((ids[1:] >= ids[:-1]).all())
    # a row chunk's codes, as the generator and writer read them off a
    # frame without members: PSU order
    lo, hi = sorted(data.draw(st.lists(st.integers(0, len(ids)), min_size=2, max_size=2)))
    np.testing.assert_array_equal(population_mod._slice_codes(pop.starts, slice(lo, hi)),
                                  np.repeat(np.arange(len(psus)), sizes)[lo:hi])


def test_estimate_icc_rejects_sparse_codes():
    with pytest.raises(ValidationError, match="dense"):
        estimate_icc(np.arange(6.0), np.array([0, 0, 2, 2, 3, 3]))


def _traced_peak(fn):
    """``fn()`` and the bytes its allocations added at their peak, as
    tracemalloc sees them (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _nbytes(pop):
    """Bytes of the population's stores: the PSU frame, outcomes and modes."""
    members = () if pop.members is None else (pop.members,)
    return sum(a.nbytes for a in (pop.psus, pop.starts, *members, pop.bits, pop.block,
                                  pop.modes))


LARGE_SPEC = SyntheticPopSpec(
    n_psus=1000, households_min=80, households_max=120, share_web=0.48, share_mail=0.26,
    variables=SMALL_SPEC.variables, icc_outcome=0.02, icc_response=0.02, seed=3,
)


def test_generate_peak_is_population_plus_a_few_chunks(monkeypatch):
    chunk = 2**14
    monkeypatch.setattr(population_mod, "_CHUNK_ROWS", chunk, raising=False)
    pop, peak = _traced_peak(lambda: generate_synthetic(LARGE_SPEC))
    assert pop.n_households > 6 * chunk
    assert peak <= _nbytes(pop) + 12 * chunk * 8


def test_generate_keeps_no_psu_id_per_household(monkeypatch):
    # the stores, eight chunk-length float64 buffers and temporaries, and the
    # per-PSU tables: no household-length int64 array (8 bytes per household)
    chunk = 2**12
    monkeypatch.setattr(population_mod, "_CHUNK_ROWS", chunk)
    pop, peak = _traced_peak(lambda: generate_synthetic(LARGE_SPEC))
    assert pop.members is None and len(pop.psus) == LARGE_SPEC.n_psus
    assert 8 * chunk * 8 + 20 * LARGE_SPEC.n_psus * 8 < pop.n_households * 8
    assert peak < _nbytes(pop) + 8 * chunk * 8 + 20 * LARGE_SPEC.n_psus * 8


def test_load_microdata_peak_is_population_plus_a_few_chunks(tmp_path, monkeypatch):
    chunk = 2**12
    spec = dataclasses.replace(SMALL_SPEC, n_psus=300)
    path = tmp_path / "pop.csv"
    write_population_csv(generate_synthetic(spec), path)
    monkeypatch.setattr(population_mod, "_CHUNK_ROWS", chunk)
    schema = MicrodataSchema(variables=tuple(v.name for v in spec.variables))
    pop, peak = _traced_peak(lambda: load_microdata(path, schema))
    assert pop.n_households > 6 * chunk
    # the id column, checked for duplicates and dropped, the PSU id column,
    # turned into the PSU frame, and one chunk's records: id, psu, a mode
    # string's reference and the outcomes
    assert peak <= _nbytes(pop) + 2 * pop.n_households * 8 + \
        8 * chunk * (3 + len(schema.variables)) * 8


def test_write_peak_is_one_small_chunk_of_python_objects(tmp_path):
    # the writer turns 2**13 rows at a time into Python objects, under 80
    # bytes per field, so its peak does not grow with the population
    pop = generate_synthetic(LARGE_SPEC)
    _, peak = _traced_peak(lambda: write_population_csv(pop, tmp_path / "pop.csv"))
    assert pop.n_households > 2**16
    assert peak <= 80 * (3 + len(pop.variable_names)) * 2**13


def test_generate_peak_is_below_a_float64_outcome_matrix(monkeypatch):
    # 2 of LARGE_SPEC's 3 variables are binary: two bits of one byte per household
    monkeypatch.setattr(population_mod, "_CHUNK_ROWS", 2**12)
    pop, peak = _traced_peak(lambda: generate_synthetic(LARGE_SPEC))
    matrix = pop.n_households * len(pop.variable_names) * 8
    assert pop.binary == (True, True, False)
    assert (pop.bits.dtype, pop.bits.shape) == (np.uint8, (pop.n_households, 1))
    assert (pop.block.dtype, pop.block.shape) == (np.float64, (pop.n_households, 1))
    assert peak < pop.psus.nbytes + pop.starts.nbytes + pop.modes.nbytes + matrix


BINARY, CONTINUOUS = SMALL_SPEC.variables[0], SMALL_SPEC.variables[2]


@pytest.mark.parametrize("kinds", ["b", "c", "bc", "cc", "bb", "bbbbbc", "cccccc", "bcbcbc",
                                   "bbbbcbbbbbc", "b" * 17])
@pytest.mark.parametrize("from_file", [False, True])
def test_totals_are_the_outcome_matrix_sum_bit_for_bit(monkeypatch, kinds, from_file):
    monkeypatch.setattr(population_mod, "_CHUNK_ROWS", 2**11)
    variables = tuple(dataclasses.replace(BINARY if k == "b" else CONTINUOUS, name=f"v{j}")
                      for j, k in enumerate(kinds))
    pop = generate_synthetic(dataclasses.replace(SMALL_SPEC, variables=variables))
    if from_file:  # every variable a float64 column of the block, as the reader stores them
        pop = dataclasses.replace(pop, bits=np.empty((pop.n_households, 0), np.uint8),
                                  block=pop.y, binary=(False,) * len(kinds))
    assert pop.n_households > 5 * 2**11
    y = pop.y
    assert y.dtype == np.float64 and y.flags.c_contiguous
    assert y.shape == (pop.n_households, len(kinds))
    assert pop.totals().tobytes() == y.sum(axis=0).tobytes()


def test_outcomes_are_rows_of_the_outcome_matrix(small_synthetic, tmp_path):
    write_population_csv(small_synthetic, tmp_path / "pop.csv")
    read = load_microdata(tmp_path / "pop.csv",
                          MicrodataSchema(variables=small_synthetic.variable_names))
    idx = np.random.default_rng(0).choice(small_synthetic.n_households, 500)
    for pop in (small_synthetic, read):
        for rows in (idx, slice(7, 700)):
            got = pop.outcomes(rows)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == np.ascontiguousarray(small_synthetic.y[rows].T).tobytes()


@settings(max_examples=60, deadline=None)
@given(nb=st.sampled_from([0, 1, 7, 8, 9, 17]), nc=st.integers(0, 3), data=st.data())
def test_outcomes_gather_the_stacked_columns(nb, nc, data):
    # binary variables packed into one, two or three bytes, mixed in any
    # order with continuous ones, and the same outcomes as the microdata
    # reader stores them: every variable a float64 column of the block
    assume(nb + nc)
    n = data.draw(st.integers(1, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kinds = data.draw(st.permutations([True] * nb + [False] * nc))
    columns = tuple(rng.integers(0, 2, n, dtype=np.uint8) if b else rng.normal(size=n)
                    for b in kinds)
    want = np.stack([c.astype(float) for c in columns])
    lo, hi = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    for stores in (outcome_stores(columns), outcome_stores(tuple(want))):
        pop = Population(**psu_frame_of(np.zeros(n, np.int64)), **stores,
                         modes=np.zeros(n, np.int8), labels=None,
                         variable_names=tuple(f"v{j}" for j in range(nb + nc)))
        assert pop.y.tobytes() == np.ascontiguousarray(want.T).tobytes()
        for rows in (rng.integers(0, n, data.draw(st.integers(1, 2 * n))),
                     np.array([], dtype=np.intp), slice(lo, hi)):
            got = pop.outcomes(rows)
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.shape == want[:, rows].shape
            assert got.tobytes() == np.ascontiguousarray(want[:, rows]).tobytes()


@pytest.mark.parametrize("kinds", ["b", "c", "bbbbbc", "bbbbbbbbcbc", "b" * 17])
def test_generated_outcomes_take_a_bit_per_binary_variable(kinds):
    variables = tuple(dataclasses.replace(BINARY if k == "b" else CONTINUOUS, name=f"v{j}")
                      for j, k in enumerate(kinds))
    pop = generate_synthetic(dataclasses.replace(SMALL_SPEC, n_psus=20, variables=variables))
    nb, nc = kinds.count("b"), kinds.count("c")
    assert pop.bits.nbytes + pop.block.nbytes == pop.n_households * (-(-nb // 8) + 8 * nc)


def test_psu_frame_allocates_little_beyond_members():
    # a generated population's frame is stored; ids out of order cost their
    # member rows and one sorted copy of the ids while the frame is built
    pop = generate_synthetic(LARGE_SPEC)
    _, peak = _traced_peak(pop.psu_frame)
    assert peak < 0.1 * pop.n_households * 8
    ids = np.random.default_rng(2).permutation(pop.psu_ids)
    frame, peak = _traced_peak(lambda: psu_frame_of(ids))
    assert frame["members"].nbytes == pop.n_households * 8
    assert peak <= 2.1 * pop.n_households * 8


def test_psu_frame_of_sorted_ids_keeps_no_member_rows():
    # Non-decreasing PSU ids, as every generated population has: each PSU's
    # rows are one range, so the frame keeps no household-length array.
    pop = generate_synthetic(LARGE_SPEC)
    ids = pop.psu_ids
    frame, peak = _traced_peak(lambda: psu_frame_of(ids))
    assert peak < 0.1 * pop.n_households * 8
    assert frame["members"] is None and pop.members is None
    want_psus, want_codes = np.unique(ids, return_inverse=True)
    for psus, starts in ((frame["psus"], frame["starts"]), (pop.psus, pop.starts)):
        np.testing.assert_array_equal(psus, want_psus)
        np.testing.assert_array_equal(np.diff(starts), np.bincount(want_codes))
    np.testing.assert_array_equal(pop.psu_codes(), want_codes)
    # The two-stage take reads each selected PSU's rows off the kept starts.
    s = two_stage_select(pop, 40, 80, np.random.default_rng(4))
    assert (np.diff(s.unit_idx) > 0).all()
    np.testing.assert_array_equal(s.psus[s.psu_code], ids[s.unit_idx])
    np.testing.assert_array_equal(np.bincount(s.psu_code), np.full(40, 80))


def test_constructing_with_ascending_ids_copies_no_id_column():
    pop = generate_synthetic(LARGE_SPEC)
    ids = pop.psu_ids
    _, peak = _traced_peak(lambda: Population(
        **psu_frame_of(ids), bits=pop.bits, block=pop.block, binary=pop.binary,
        modes=pop.modes, labels=None, variable_names=pop.variable_names))
    assert peak < pop.n_households * 8 / 2


def test_attaching_propensities_allocates_nothing_population_sized():
    pop = generate_synthetic(LARGE_SPEC)
    out, peak = _traced_peak(lambda: attach_propensities(
        pop, {"WEB": (0.6, 0.3), "MAIL": (0.3, 0.4), "FTF": (0.15, 0.45)}))
    assert peak < pop.n_households
    np.testing.assert_array_equal(out.propensities, [[0.6, 0.3], [0.3, 0.4], [0.15, 0.45]])
    assert out.modes is pop.modes


def test_propensity_table_checks_shape_and_range():
    pop = make_population(np.ones(4), [0, 0, 1, 1], modes=[0, 1, 2, 0])
    with pytest.raises(IntegrityError, match=r"\(3, 2\)"):
        dataclasses.replace(pop, propensities=np.full((4, 2), 0.25))  # one row per household
    bad = {"WEB": (0.5, 0.2), "MAIL": (1.2, 0.0), "FTF": (0.1, 0.1)}
    with pytest.raises(ValidationError, match=r"^MAIL: propensities must lie in \[0, 1\]"):
        attach_propensities(pop, bad)
    with pytest.raises(ValidationError, match=r"^MAIL: propensities must lie in \[0, 1\]"):
        dataclasses.replace(pop, propensities=np.array(list(bad.values())))


def test_roundtrip_is_lossless(tmp_path):
    rng = np.random.default_rng(3)
    n = 1000
    pop = make_population(
        y=rng.normal(size=(n, 3)),
        psu_ids=rng.integers(0, 25, n),
        modes=rng.integers(0, 3, n),
        labels=rng.integers(0, 3, n),
    )
    path = tmp_path / "roundtrip.csv"
    write_population_csv(pop, path)
    schema = MicrodataSchema(variables=pop.variable_names, label="label")
    back = load_microdata(path, schema)
    # the writer numbers the rows as ids
    np.testing.assert_array_equal(population_mod._read_columns(path, schema)[0], np.arange(n))
    np.testing.assert_array_equal(back.psu_ids, pop.psu_ids)
    np.testing.assert_array_equal(back.modes, pop.modes)
    np.testing.assert_array_equal(back.labels, pop.labels)
    np.testing.assert_array_equal(back.y, pop.y)


def _oracle(path, schema):
    """Reference reader: csv.reader plus int()/float() per field."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    col = {name: rows[0].index(name) for name in rows[0]}
    body = rows[1:]
    code = lambda names, text: names.index(text.strip().upper())  # noqa: E731
    return dict(
        ids=np.array([int(r[col[schema.id]]) for r in body], dtype=np.int64),
        psu_ids=np.array([int(r[col[schema.psu]]) for r in body], dtype=np.int64),
        modes=np.array([code(MODE_NAMES, r[col[schema.mode]]) for r in body], dtype=np.int8),
        labels=np.array([code(LABEL_NAMES, r[col[schema.label]]) for r in body], dtype=np.int8),
        y=np.array([[float(r[col[v]]) for v in schema.variables] for r in body]),
    )


def _assert_matches_oracle(path, schema):
    pop = _load(path, schema)
    ref = _oracle(path, schema)
    got_ids = population_mod._read_columns(path, schema)[0]  # checked, then not kept
    for name in ("ids", "psu_ids", "modes", "labels"):
        got = got_ids if name == "ids" else getattr(pop, name)
        assert got.dtype == ref[name].dtype
        np.testing.assert_array_equal(got, ref[name])
    assert pop.y.shape == ref["y"].shape
    # bit patterns, so -0.0 and 0.0 differ and every last digit counts
    np.testing.assert_array_equal(pop.y.view(np.uint64), ref["y"].view(np.uint64))


TRICKY_CSV = """\
note,lab,v2,"hh,id",mode,psu,v1
"a, quoted note",w,1e-3,9223372036854775807, web ,-9223372036854775808,0.1
plain,F ,-0.0,-9223372036854775807,Mail,0,0.30000000000000004
"x""y",n," 2.5E+10 ",42,"FTF",7,5e-324

"multi
line",W,4.9406564584124654e-324,-1,fTf,+12,2.2250738585072009e-308
#not-a-comment, N ,-1.7976931348623157e308,  17  ,WEB,3,1.2345678901234567e-300
,f,123456789012345678,18,mail,3,.5
"""


def test_reader_matches_csv_oracle(tmp_path):
    path = _write(tmp_path, TRICKY_CSV)
    schema = MicrodataSchema(id="hh,id", variables=("v1", "v2"), label="lab")
    _assert_matches_oracle(path, schema)
    assert _load(path, schema).n_households == 6


@settings(max_examples=30, deadline=None)
@given(
    ids=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=20, unique=True),
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=20,
                    max_size=20),
    fmt=st.sampled_from(["{!r}", "{:.17e}", "{:.17g}", "{:.3f}", " {!r} "]),
    # whitespace around the names, some of it past the width the reader keeps
    pads=st.lists(st.tuples(st.text(" \t", max_size=10), st.text(" \t", max_size=10)),
                  min_size=20, max_size=20),
)
def test_reader_matches_oracle_on_random_numbers(tmp_path_factory, ids, values, fmt, pads):
    lines = ["psu,id,v1,mode,label"]
    for i, hh in enumerate(ids):
        before, after = pads[i]
        lines.append(f"{i % 3},{hh},{fmt.format(values[i])},"
                     f"{before}{MODE_NAMES[i % 3].lower()}{after},"
                     f"{after}{LABEL_NAMES[i % 3]}{before}")
    path = tmp_path_factory.mktemp("oracle") / "pop.csv"
    path.write_text("\n".join(lines) + "\n")
    _assert_matches_oracle(path, MicrodataSchema(variables=("v1",), label="label"))


def test_hash_is_data_not_a_comment(tmp_path):
    ok = "id,psu,mode,v1,note\n1,1,WEB,1.0,#keep\n"
    assert _load(_write(tmp_path, ok), MicrodataSchema(variables=("v1",))).n_households == 1
    for text in ("id,psu,mode,v1\n1,1,WEB,1.0\n#2,1,WEB,1.0\n",
                 "id,psu,mode,v1\n1,1,WEB,1.0\n2,1,WEB,1.0 # note\n",
                 "id,psu,mode,v1\n1,1,WEB,1.0\n2,1,WEB#,1.0\n"):
        with pytest.raises(ParseError, match=r"^pop\.csv:3: "):
            _load(_write(tmp_path, text), MicrodataSchema(variables=("v1",)))


@pytest.mark.parametrize("text", ["id,psu,mode,v1\n", "id,psu,mode,v1\n\n\n"])
def test_header_only_file_has_no_data_rows_and_no_warning(tmp_path, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="no data rows"):
            _load(_write(tmp_path, text), MicrodataSchema(variables=("v1",)))


@pytest.mark.parametrize("column,value", [
    ("mode", "WEBSITE"), ("mode", "MAILX"),
    pytest.param("mode", "FTF" + "F" * 300, id="mode-FTF+300F"),
    # beyond the csv module's default field limit
    pytest.param("mode", "FTF" + "F" * 200_000, id="mode-FTF+200000F"),
    ("label", "WEB"), ("label", "NN"),
    # a valid name, then more text past the width np.loadtxt keeps
    pytest.param("mode", "WEB      X", id="mode-WEB+6sp+X"),
    pytest.param("label", "W       X", id="label-W+7sp+X"),
    pytest.param("mode", "  MAIL  WEB", id="mode-MAIL-WEB"),
])
def test_overlong_mode_or_label_is_rejected_not_truncated(tmp_path, column, value):
    row = {"mode": "FTF", "label": "N", column: value}
    text = f"id,psu,mode,v1,label\n1,1,WEB,0.5,W\n2,1,{row['mode']},1.0,{row['label']}\n"
    names = {"mode": "WEB/MAIL/FTF", "label": "W/F/N"}[column]
    # the full value, as a plain str repr
    with pytest.raises(ParseError, match=rf"^pop\.csv:3: unknown value "
                                         rf"{re.escape(reprlib.repr(value))} in column "
                                         rf"'{column}', expected one of {names}$"):
        _load(_write(tmp_path, text), MicrodataSchema(variables=("v1",), label="label"))


@pytest.mark.parametrize("column", ["mode", "label"])
@pytest.mark.parametrize("padded", [
    pytest.param("        {}", id="8-spaces-before"),
    pytest.param("{}" + " " * 10, id="10-spaces-after"),
    pytest.param('"  {}      "', id="quoted"),
    pytest.param("\t{}\t \t \t \t ", id="tabs"),
    pytest.param(" " * 200_000 + "{}", id="200000-spaces-before"),
    pytest.param("{:^8}", id="fills-the-width-exactly"),
])
def test_padded_names_longer_than_the_width_are_accepted(tmp_path, column, padded):
    # Every field that fills the width np.loadtxt keeps is read again in
    # full, so any amount of surrounding whitespace is ignored.
    name = {"mode": "mail", "label": "F"}[column]
    fields = {"mode": "FTF", "label": "N", column: padded.format(name)}
    text = (f"id,psu,mode,v1,label\n1,1,WEB,0.5,W\n"
            f"2,1,{fields['mode']},1.0,{fields['label']}\n3,2,WEB,0.5,W\n")
    pop = _load(_write(tmp_path, text), MicrodataSchema(variables=("v1",), label="label"))
    assert pop.modes.tolist() == [MODE_WEB, MODE_MAIL if column == "mode" else MODE_FTF,
                                  MODE_WEB]
    assert pop.labels.tolist() == [LABEL_WEB, LABEL_FTF if column == "label" else LABEL_NONE,
                                   LABEL_WEB]


def test_nul_byte_cannot_hide_a_cut_field(tmp_path):
    # np.loadtxt keeps "WEB" and five NULs of this field, and numpy text
    # drops NULs from its end, so the stored text does not fill the width.
    schema = MicrodataSchema(variables=("v1",), label="label")
    value = "WEB" + "\0" * 5 + "X"
    with pytest.raises(ParseError, match=rf"^pop\.csv:4: unknown value "
                                         rf"{re.escape(reprlib.repr(value))} in column 'mode'"):
        _load(_write(tmp_path, f"id,psu,mode,v1,label\n1,1,WEB,0.5,W\n\n"
                               f"2,1,{value},1.0,N\n"), schema)
    # a NUL elsewhere changes nothing
    text = "id,psu,mode,v1,label,note\n1,1,WEB,0.5,W,\n2,1, Mail ,1.0,n,\n3,2,ftf,2.0,F,{}\n"
    plain = _read(_write(tmp_path, text.format("x")), schema)[1]
    assert _read(_write(tmp_path, text.format("a\0b"), "nul.csv"), schema)[1] == plain
    assert _load(tmp_path / "nul.csv", schema).modes.tolist() == [MODE_WEB, MODE_MAIL, MODE_FTF]


def test_rescan_reads_past_long_fields_and_keeps_the_csv_limit(tmp_path):
    # A field beyond the csv module's default limit before a cut one.
    limit = csv.field_size_limit()
    text = ("id,psu,mode,v1,note\n"
            f"1,1,WEB,0.5,{'x' * 2 * limit}\n"
            "2,1,        FTF,1.0,\n")
    pop = _load(_write(tmp_path, text), MicrodataSchema(variables=("v1",)))
    assert pop.modes.tolist() == [MODE_WEB, MODE_FTF]
    assert csv.field_size_limit() == limit


def test_rescan_that_ends_early_leaves_no_cut_code(tmp_path, monkeypatch):
    rescan = population_mod._csv_rows

    def header_and_first_row(path):
        yield from itertools.islice(rescan(path), 2)

    monkeypatch.setattr(population_mod, "_csv_rows", header_and_first_row)
    path = _write(tmp_path, "id,psu,mode,v1\n1,1,WEB,0.5\n2,1,        FTF,1.0\n")
    with pytest.raises(ParseError, match=r"^pop\.csv: the csv module reads fewer data rows "):
        load_microdata(path, MicrodataSchema(variables=("v1",)))


@pytest.mark.parametrize("column,bad", [
    ("id", "x7"), ("id", "1.0"), ("id", "1_000"), ("id", "99999999999999999999"),
    ("psu", ""), ("psu", "-99999999999999999999"),
    ("v1", "oops"), ("v1", "1_0.5"), ("v1", "nan"), ("v1", "-inf"), ("v1", "1e999"),
    ("mode", "PHONE"), ("label", "Q"),
])
def test_bad_value_names_line_and_column(tmp_path, column, bad):
    good = {"id": "9", "psu": "3", "mode": "MAIL", "v1": "0.25", "label": "f"}
    bad_row = ",".join(bad if c == column else v for c, v in good.items())
    text = ("id,psu,mode,v1,label,note\n"
            "1,3,WEB,1.0,W,\n"
            '2,3,FTF,1.0,N,"two\nlines"\n'   # this row spans lines 3-4
            "\n"                              # a blank line is not a row
            f"{bad_row},\n"
            "10,3,WEB,1.0,W,\n")
    with pytest.raises(ParseError, match=rf"^pop\.csv:6: .*'{column}'"):
        _load(_write(tmp_path, text), MicrodataSchema(variables=("v1",), label="label"))


def test_short_row_names_line_and_missing_column(tmp_path):
    path = _write(tmp_path, "id,psu,mode,v1\n1,1,WEB,1.0\n2,1,MAIL\n")
    with pytest.raises(ParseError, match=r"^pop\.csv:3: no value in column 'v1'"):
        _load(path, MicrodataSchema(variables=("v1",)))


def test_undecodable_bytes_name_the_line(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_bytes(b"id,psu,mode,v1\n1,1,WEB,1.0\n2,1,W\xe9B,1.0\n")
    with pytest.raises(ParseError, match=r"^pop\.csv:3: not UTF-8"):
        _load(path, MicrodataSchema(variables=("v1",)))


def test_missing_file_is_data_error_naming_path(tmp_path):
    missing = tmp_path / "absent.csv"
    with pytest.raises(DataError, match="absent.csv"):
        _load(missing, MicrodataSchema(variables=("v1",)))


def test_byte_order_mark_is_skipped(tmp_path):
    text = "id,psu,mode,v1\n1,10,WEB,1.5\n2,10,MAIL,-0.0\n3,20,FTF,3e-7\n"
    schema = MicrodataSchema(variables=("v1",))
    plain = _load(_write(tmp_path, text), schema)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    marked = _load(bom, schema)
    for field in ("psu_ids", "y", "modes"):
        np.testing.assert_array_equal(getattr(marked, field), getattr(plain, field))
        assert getattr(marked, field).dtype == getattr(plain, field).dtype
    # the first column, whose name follows the mark
    np.testing.assert_array_equal(population_mod._read_columns(bom, schema)[0], [1, 2, 3])
    assert marked.labels is None and marked.variable_names == plain.variable_names
    bom.write_bytes(b"\xef\xbb\xbf" + b"id,psu,mode,v1\n1,1,WEB,1.0\n2,1,MAIL,oops\n")
    with pytest.raises(ParseError, match=r"^bom\.csv:3: 'oops' is not a valid float"):
        _load(bom, schema)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_other_line_ends_read_the_same(tmp_path, newline):
    # rows are counted from the line ends to size the arrays before reading
    text = "id,psu,mode,v1\n1,10,WEB,1.5\n\n2,10,MAIL,-0.0\n3,20,FTF,3e-7"
    schema = MicrodataSchema(variables=("v1",))
    other = tmp_path / "other.csv"
    other.write_bytes(text.replace("\n", newline).encode())
    assert _read(other, schema)[1] == _read(_write(tmp_path, text), schema)[1]
    assert _load(other, schema).n_households == 3


def _write_population_rows(pop, path):
    """Reference writer: one csv.writer row per household."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["id", "psu", "mode", *pop.variable_names]
        if pop.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(pop.n_households):
            row = [i, int(pop.psu_ids[i]),
                   MODE_NAMES[pop.modes[i]],
                   *(repr(float(v)) for v in pop.y[i])]
            if pop.labels is not None:
                row.append(LABEL_NAMES[pop.labels[i]])
            writer.writerow(row)


@pytest.mark.parametrize("with_labels", [True, False])
def test_population_writer_matches_row_by_row_writer(tmp_path, with_labels):
    rng = np.random.default_rng(4)
    n = 300
    y = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    y[:4, 0] = [-0.0, 0.0, 5e-324, 1.7976931348623157e308]
    pop = Population(**psu_frame_of(rng.integers(-2**62, 2**62, n)), **outcome_stores(tuple(y.T)),
                     modes=rng.integers(0, 3, n).astype(np.int8),
                     labels=rng.integers(0, 3, n).astype(np.int8) if with_labels else None,
                     variable_names=("v1", "odd, \"name\"", "v3"))
    write_population_csv(pop, tmp_path / "columns.csv")
    _write_population_rows(pop, tmp_path / "rows.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


_NO_BITS = np.empty((3, 0), np.uint8)


@pytest.mark.parametrize("columns", [
    {"bits": _NO_BITS, "block": np.ones((3, 1)), "binary": (False, False)},
    {"bits": _NO_BITS, "block": np.ones((2, 2)), "binary": (False, False)},
    {"bits": _NO_BITS, "block": np.ones((3, 2, 1)), "binary": (False, False)},
    {"bits": np.zeros((3, 1), np.uint8), "block": np.ones((3, 2)), "binary": (False, False)},
    {"bits": np.zeros((3, 2), np.uint8), "block": np.ones((3, 1)), "binary": (True, False)},
    {"bits": np.zeros((3, 1)), "block": np.ones((3, 1)), "binary": (True, False)},
    {"bits": np.zeros((3, 1), np.uint8), "block": np.ones((3, 1)), "binary": (True,)},
])
def test_population_needs_one_column_per_variable_and_household(columns):
    # one column for two variables, two rows for three households, a column
    # that is not a vector, a byte of bits with no binary variable, two bytes
    # for one, bits that are not uint8, one kind for two variables
    with pytest.raises(IntegrityError, match="do not match 3 households x 2 variables"):
        Population(**psu_frame_of(np.zeros(3, dtype=np.int64)), **columns,
                   modes=np.zeros(3, np.int8), labels=None, variable_names=("a", "b"))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_population_rejects_non_finite_outcomes(value):
    y = np.ones((3, 2))
    y[1, 1] = value
    with pytest.raises(IntegrityError, match="non-finite"):
        Population(**psu_frame_of(np.zeros(3, dtype=np.int64)), **outcome_stores(tuple(y.T)),
                   modes=np.zeros(3, np.int8), labels=None, variable_names=("a", "b"))


# ---------------------------------------------------------------------------
# Pseudopopulation rules
# ---------------------------------------------------------------------------

def test_rule_a_maps_modes_directly():
    pop = make_population([1.0, 2.0, 3.0], [0, 0, 0], modes=[MODE_WEB, MODE_MAIL, MODE_FTF])
    out = build_pseudopopulation(pop, "A", np.random.default_rng(0))
    assert list(out.labels) == [LABEL_WEB, LABEL_FTF, LABEL_NONE]


def test_rule_c_has_no_nonrespondents():
    rng = np.random.default_rng(1)
    pop = make_population(rng.normal(size=200), np.zeros(200), modes=rng.integers(0, 3, 200))
    out = build_pseudopopulation(pop, "C", rng)
    assert (out.labels != LABEL_NONE).all()
    assert ((pop.modes == MODE_WEB) == (out.labels == LABEL_WEB)).all()


def test_rule_b_splits_mail_households_in_half():
    n = 10_000
    pop = make_population(np.ones(n), np.zeros(n), modes=np.full(n, MODE_MAIL))
    out = build_pseudopopulation(pop, "B", np.random.default_rng(2))
    n_ftf = int((out.labels == LABEL_FTF).sum())
    # 4 sd of Binomial(10000, .5); the exact-half split sits at the center
    assert abs(n_ftf - 5000) <= 4 * math.sqrt(n * 0.25)
    assert int((out.labels == LABEL_NONE).sum()) == n - n_ftf


def test_rule_d_mail_becomes_web():
    rng = np.random.default_rng(3)
    modes = rng.integers(0, 3, 5000)
    pop = make_population(rng.normal(size=5000), np.zeros(5000), modes=modes)
    out = build_pseudopopulation(pop, "D", rng)
    assert ((modes == MODE_MAIL) == (out.labels == LABEL_WEB)).all()
    pool = modes != MODE_MAIL
    n_f = int((out.labels[pool] == LABEL_FTF).sum())
    assert abs(n_f - pool.sum() / 2) <= 2  # exact halves per mode group


def test_rules_preserve_households_and_outcomes():
    rng = np.random.default_rng(4)
    pop = make_population(rng.normal(size=(300, 2)), rng.integers(0, 9, 300),
                          modes=rng.integers(0, 3, 300))
    for rule in "ABCD":
        out = build_pseudopopulation(pop, rule, np.random.default_rng(5))
        assert out.n_households == pop.n_households
        np.testing.assert_array_equal(out.y, pop.y)
        np.testing.assert_array_equal(out.psu_ids, pop.psu_ids)


@pytest.mark.parametrize("rule", ["B", "D"])
def test_random_half_rules_equalize_ftf_and_nonresp_means(rule):
    # The split is an exact stratified half-split, so
    # var(mean_F - mean_N) = (4/n^2) * sum_g n_g * S_g^2 over the split groups.
    rng = np.random.default_rng(6)
    n = 12_000
    modes = rng.integers(0, 3, n)
    y = rng.normal(loc=modes.astype(float), scale=1.0, size=n)
    pop = make_population(y, np.zeros(n), modes=modes)
    out = build_pseudopopulation(pop, rule, rng)
    split_modes = (MODE_MAIL, MODE_FTF) if rule == "B" else (MODE_WEB, MODE_FTF)
    pool = np.isin(modes, split_modes)
    var = 4.0 / pool.sum() ** 2 * sum(
        (modes == m).sum() * y[modes == m].var(ddof=1) for m in split_modes
    )
    diff = y[out.labels == LABEL_FTF].mean() - y[out.labels == LABEL_NONE].mean()
    assert abs(diff) <= 4 * math.sqrt(var)


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

def _generate_synthetic_reference(spec):
    """The unchunked definition of ``generate_synthetic``: each step draws
    all of its uniforms or normals in one call."""
    from mmsim.population import (
        _SQRT3,
        _binary_loadings,
        _mode_shares,
        _response_loading,
        _total_variance,
    )

    rng = np.random.default_rng(spec.seed)
    sizes = rng.integers(spec.households_min, spec.households_max + 1, spec.n_psus)
    n = int(sizes.sum())
    psu_of_hh = np.repeat(np.arange(spec.n_psus), sizes)
    u_resp = rng.uniform(-_SQRT3, _SQRT3, spec.n_psus)
    b_resp = _response_loading(spec)
    q_web = np.clip(spec.share_web + b_resp * u_resp, 0.0, 1.0)
    rest = 1.0 - spec.share_web
    q_mail = spec.share_mail * (1.0 - q_web) / rest if rest > 0 else np.zeros_like(q_web)
    u = rng.random(n)
    qw = q_web[psu_of_hh]
    qm = q_mail[psu_of_hh]
    modes = np.where(u < qw, MODE_WEB, np.where(u < qw + qm, MODE_MAIL, MODE_FTF))
    modes = modes.astype(np.int8)
    shares = _mode_shares(spec)
    y = np.empty((n, len(spec.variables)))
    for j, v in enumerate(spec.variables):
        u_y = rng.uniform(-_SQRT3, _SQRT3, spec.n_psus)[psu_of_hh]
        means = v.mode_means()[modes]
        if v.kind == "binary":
            loads = _binary_loadings(v.mode_means(), shares, spec.icc_outcome)
            p = np.clip(means + loads[modes] * u_y, 0.0, 1.0)
            y[:, j] = (rng.random(n) < p).astype(float)
        else:
            v_tot = _total_variance(v.mode_means(), shares, np.full(3, v.sd**2))
            b = math.sqrt(spec.icc_outcome * v_tot)
            sd_within = math.sqrt(max(v.sd**2 - b**2, 0.0))
            y[:, j] = means + b * u_y + rng.normal(0.0, sd_within, n)
    return psu_of_hh.astype(np.int64), y, modes


_means = st.floats(0.05, 0.95)
_variables = st.lists(
    st.one_of(
        st.builds(VariableSpec, name=st.just(""), mean_web=_means, mean_mail=_means,
                  mean_ftf=_means),
        st.builds(VariableSpec, name=st.just(""), mean_web=st.floats(-5, 5),
                  mean_mail=st.floats(-5, 5), mean_ftf=st.floats(-5, 5),
                  kind=st.just("continuous"), sd=st.floats(0.1, 3.0)),
    ),
    min_size=1, max_size=10,
)


@st.composite
def _synthetic_specs(draw):
    share_web = draw(st.sampled_from([1.0, 0.0]) | st.floats(0.05, 0.95))
    share_mail = draw(st.floats(0.0, 1.0 - share_web))
    h_min = draw(st.integers(1, 40))
    variables = tuple(dataclasses.replace(v, name=f"v{j}")
                      for j, v in enumerate(draw(_variables)))
    fields = dict(
        n_psus=draw(st.integers(1, 30)), households_min=h_min,
        households_max=h_min + draw(st.just(0) | st.integers(0, 20)),
        share_web=share_web, share_mail=share_mail, variables=variables,
        icc_outcome=draw(st.just(0.0) | st.floats(0.001, 0.05)),
        icc_response=draw(st.just(0.0) | st.floats(0.001, 0.05)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    try:
        return SyntheticPopSpec(**fields)
    except ValidationError:  # a spec that cannot be generated
        assume(False)


@pytest.mark.parametrize("regime", ["below_one_chunk", "multiple_of_chunk",
                                    "several_chunks"])
@settings(max_examples=25, deadline=None)
@given(spec=_synthetic_specs(), data=st.data())
def test_chunked_generation_matches_unchunked_reference(regime, spec, data):
    real_default_rng = np.random.default_rng
    made = []

    def recording_default_rng(*args, **kwargs):
        made.append(real_default_rng(*args, **kwargs))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", recording_default_rng)
        want = _generate_synthetic_reference(spec)
        n = len(want[0])
        if regime == "below_one_chunk":
            chunk = n + data.draw(st.integers(0, 50))
        elif regime == "multiple_of_chunk":
            chunk = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        else:
            assume(n >= 3)
            chunk = data.draw(st.integers(1, (n - 1) // 2))
        mp.setattr(population_mod, "_CHUNK_ROWS", chunk)
        pop = generate_synthetic(spec)
    ref_rng, rng = made
    for got, exp in zip((pop.psu_ids, pop.y, pop.modes), want):
        assert got.dtype == exp.dtype
        assert got.tobytes() == exp.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_zero_icc_spec_yields_zero_icc():
    spec = SyntheticPopSpec(
        n_psus=400, households_min=60, households_max=80,
        share_web=0.5, share_mail=0.3,
        variables=(VariableSpec("v1", 0.6, 0.6, 0.6),),
        icc_outcome=0.0, seed=11,
    )
    pop = generate_synthetic(spec)
    assert abs(estimate_icc(pop.y[:, 0], pop.psu_ids)) <= 0.01


def test_icc_calibration_at_scale():
    spec = SyntheticPopSpec(
        n_psus=1200, households_min=90, households_max=110,
        share_web=0.48, share_mail=0.26,
        variables=(VariableSpec("v1", 0.88, 0.82, 0.77),
                   VariableSpec("inc", 0.75, 0.62, 0.52, kind="continuous", sd=0.55)),
        icc_outcome=0.02, icc_response=0.02, seed=12,
    )
    pop = generate_synthetic(spec)
    assert pop.n_households >= 100_000
    for j in range(len(pop.variable_names)):
        assert abs(estimate_icc(pop.y[:, j], pop.psu_ids) - 0.02) <= 0.01


def test_mode_shares_hit_targets(small_synthetic):
    pop = small_synthetic
    n = pop.n_households
    m_bar = n / SMALL_SPEC.n_psus
    for target, code in ((0.48, MODE_WEB), (0.26, MODE_MAIL), (0.26, MODE_FTF)):
        share = (pop.modes == code).mean()
        # cluster-inflated binomial sd
        sd = math.sqrt(target * (1 - target) / n * (1 + SMALL_SPEC.icc_response * (m_bar - 1)))
        assert abs(share - target) <= 2 * sd, (code, share)


def test_mode_means_hit_targets(small_synthetic):
    pop = small_synthetic
    m_bar = pop.n_households / SMALL_SPEC.n_psus
    deff = 1 + SMALL_SPEC.icc_outcome * (m_bar - 1)
    for j, v in enumerate(SMALL_SPEC.variables):
        for code, target in enumerate(v.mode_means()):
            got = pop.y[pop.modes == code, j]
            sd = math.sqrt(got.var(ddof=1) / len(got) * deff)
            assert abs(got.mean() - target) <= 2 * sd, (v.name, code)


def test_equal_mail_ftf_means_balance():
    spec = SyntheticPopSpec(
        n_psus=300, households_min=90, households_max=110,
        share_web=0.5, share_mail=0.25,
        variables=(VariableSpec("v1", 0.7, 0.5, 0.5),),
        icc_outcome=0.01, seed=13,
    )
    pop = generate_synthetic(spec)
    m_bar = pop.n_households / spec.n_psus
    deff = 1 + spec.icc_outcome * (m_bar - 1)
    a = pop.y[pop.modes == MODE_MAIL, 0]
    b = pop.y[pop.modes == MODE_FTF, 0]
    sd = math.sqrt((a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b)) * deff)
    assert abs(a.mean() - b.mean()) <= 2 * sd


def test_infeasible_specs_rejected():
    with pytest.raises(ValidationError):  # a binary mean above 1
        SyntheticPopSpec(
            n_psus=10, households_min=5, households_max=6,
            share_web=0.5, share_mail=0.3,
            variables=(VariableSpec("v1", 1.2, 0.5, 0.5),), seed=0,
        )
    with pytest.raises(ValidationError):  # mode shares summing to 1.1
        SyntheticPopSpec(
            n_psus=10, households_min=5, households_max=6,
            share_web=0.8, share_mail=0.3,
            variables=(VariableSpec("v1", 0.5, 0.5, 0.5),), seed=0,
        )


def _with_variable(i, **changes):
    variables = list(SMALL_SPEC.variables)
    variables[i] = dataclasses.replace(variables[i], **changes)
    return {"variables": tuple(variables)}


@pytest.mark.parametrize("changes, message", [
    ({"n_psus": 0}, "n_psus: PSU and household counts must be positive"),
    ({"households_min": 0}, "households_min: PSU and household counts must be positive"),
    ({"households_max": 79}, "households_max: households_max < households_min"),
    ({"households_max": 2**63 // 150 + 1},
     f"households_max: 150 PSUs of up to {2**63 // 150 + 1} households can exceed "
     f"{2**63 - 1}, the most a 64-bit count holds"),
    ({"variables": ()}, "variables: at least one variable is required"),
    ({"share_web": 1.5}, "share_web: mode shares must lie in the simplex, got 1.5"),
    ({"share_mail": -0.25}, "share_mail: mode shares must lie in the simplex, got -0.25"),
    ({"share_mail": 0.6}, "share_mail: mode shares must lie in the simplex, got "
                          f"{1.0 - 0.48 - 0.6} for share_ftf = 1 - share_web - share_mail"),
    ({"icc_outcome": math.nan},
     "icc_outcome: intraclass correlation must be in [0, 1), got nan"),
    ({"icc_response": 1.0}, "icc_response: intraclass correlation must be in [0, 1), got 1.0"),
    (_with_variable(0, kind="ordinal"), "variables[0].kind: v1: unknown kind 'ordinal'"),
    (_with_variable(1, mean_mail=1.0), "variables[1].mean_mail: v3: binary mean 1.0 outside (0, 1)"),
    ({"icc_outcome": 0.5}, "icc_outcome: v1: icc_outcome=0.5 pushes a PSU-level probability "
                           "outside [0, 1]; reduce the icc or move the means"),
    (_with_variable(2, sd=0.0), "variables[2].sd: inc: continuous variables need sd > 0"),
    (_with_variable(2, mean_ftf=math.inf), "variables[2].mean_ftf: inc: mean_ftf must be finite, "
                                           "got inf"),
    (_with_variable(2, sd=1e300), "variables[2].sd: inc: sd must be at most 1e+150 in "
                                  "magnitude, got 1e+300"),
    (_with_variable(2, mean_web=-1e308), "variables[2].mean_web: inc: mean_web must be at most "
                                         "1e+150 in magnitude, got -1e+308"),
    ({"share_web": 0.9, "share_mail": 0.05, "icc_response": 0.5},
     "icc_response: icc_response pushes a PSU-level web share outside [0, 1]"),
])
def test_spec_errors_name_the_field(changes, message):
    with pytest.raises(ValidationError) as exc:
        dataclasses.replace(SMALL_SPEC, **changes)
    assert str(exc.value) == f"population.synthetic.{message}"


@pytest.mark.parametrize("changes, message", [
    # 2**60 int64 PSU sizes are 2**63 bytes, one more than numpy's limit
    ({"n_psus": 2**60, "households_min": 1, "households_max": 1},
     f"n_psus: cannot allocate arrays for {2**60} PSUs"),
    # about 150 * 3e16 int64 PSU ids, over 2**63 bytes
    ({"households_max": 6 * 10**16}, "households_max: cannot allocate arrays for "),
])
def test_population_numpy_refuses_is_config_error(changes, message):
    with pytest.raises(ConfigError, match=re.escape(f"population.synthetic.{message}")):
        generate_synthetic(dataclasses.replace(SMALL_SPEC, **changes))


# ---------------------------------------------------------------------------
# Stochastic labels
# ---------------------------------------------------------------------------

def test_certain_web_propensity():
    pop = make_population(np.ones(50), np.zeros(50), modes=np.zeros(50, dtype=int))
    pop = attach_propensities(pop, {"WEB": (1.0, 0.0), "MAIL": (1.0, 0.0), "FTF": (1.0, 0.0)})
    out = draw_stochastic_labels(pop, np.random.default_rng(0))
    assert (out.labels == LABEL_WEB).all()


def test_certain_ftf_propensity():
    pop = make_population(np.ones(50), np.zeros(50), modes=np.zeros(50, dtype=int))
    pop = attach_propensities(pop, {"WEB": (0.0, 1.0), "MAIL": (0.0, 1.0), "FTF": (0.0, 1.0)})
    out = draw_stochastic_labels(pop, np.random.default_rng(0))
    assert (out.labels == LABEL_FTF).all()


def test_stochastic_shares_match_propensities():
    n = 100_000
    pop = make_population(np.ones(n), np.zeros(n), modes=np.zeros(n, dtype=int))
    pop = attach_propensities(pop, {"WEB": (0.3, 0.35), "MAIL": (0.3, 0.35), "FTF": (0.3, 0.35)})
    out = draw_stochastic_labels(pop, np.random.default_rng(1))
    for target, label in ((0.3, LABEL_WEB), (0.35, LABEL_FTF)):
        share = (out.labels == label).mean()
        assert abs(share - target) <= 4 * math.sqrt(target * (1 - target) / n)


def test_invalid_propensities_rejected():
    pop = make_population(np.ones(3), np.zeros(3), modes=np.zeros(3, dtype=int))
    with pytest.raises(ValidationError):
        attach_propensities(pop, {"WEB": (0.0, 0.0), "MAIL": (0.5, 0.2), "FTF": (0.5, 0.2)})


@pytest.mark.parametrize("phi", [(np.nan, 0.0), (0.5, np.nan), (np.nan, np.nan)])
def test_nan_propensities_rejected(phi):
    pop = make_population(np.ones(3), np.zeros(3), modes=np.zeros(3, dtype=int))
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        attach_propensities(pop, {"WEB": phi, "MAIL": (0.5, 0.2), "FTF": (0.5, 0.2)})


def _propensity_population(modes, psu_ids=None):
    modes = np.asarray(modes)
    pop = make_population(np.ones(len(modes)),
                          np.zeros(len(modes)) if psu_ids is None else psu_ids, modes=modes)
    return attach_propensities(pop, {"WEB": (0.3, 0.4), "MAIL": (0.2, 0.5), "FTF": (0.1, 0.6)})


def _state(state):
    """A bit generator's state, with its arrays (MT19937's key) as bytes."""
    if isinstance(state, dict):
        return {k: _state(v) for k, v in state.items()}
    return state.tobytes() if isinstance(state, np.ndarray) else state


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), halves=st.integers(0, 3), n=st.integers(1, 5000),
       bit_generator=st.sampled_from([np.random.PCG64, np.random.MT19937]))
def test_stochastic_labels_leave_the_generator_where_the_full_draw_does(
        seed, halves, n, bit_generator):
    # An odd count of 32-bit draws leaves half a 64-bit output buffered,
    # which random(N) keeps and a PCG64 jump ahead drops.
    got, want = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    for rng in (got, want):
        rng.integers(0, 10, halves, dtype=np.uint32)
    StochasticLabels(_propensity_population(np.zeros(n, dtype=int)), got)
    want.random(n)
    assert _state(got.bit_generator.state) == _state(want.bit_generator.state)
    assert got.integers(0, 2**32, 3, dtype=np.uint32).tobytes() == \
        want.integers(0, 2**32, 3, dtype=np.uint32).tobytes()


@st.composite
def label_lookups(draw, n):
    """Rows to look up in a population of ``n``: scattered rows in any
    order with repeats, sorted blocks of neighbouring rows as a clustered
    sample reads, the edge rows, or a slice."""
    row = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["scattered", "sorted", "clustered", "edges", "slice"]))
    if kind == "slice":
        end = st.none() | st.integers(-n - 2, n + 2)
        return slice(draw(end), draw(end), draw(st.none() | st.integers(1, 7)))
    if kind == "edges":
        return np.array(draw(st.permutations([0, n - 1])))
    if kind == "clustered":
        blocks = draw(st.lists(st.tuples(row, st.integers(1, 40)), max_size=5))
        return np.unique(np.concatenate(
            [np.arange(a, min(n, a + k)) for a, k in blocks] or [np.empty(0, np.intp)]))
    rows = np.array(draw(st.lists(row, max_size=60)), dtype=np.intp)
    return np.sort(rows) if kind == "sorted" else rows


@st.composite
def label_cases(draw):
    n = draw(st.integers(1, 3000))
    return n, draw(label_lookups(n)), draw(label_lookups(n))


@settings(max_examples=250, deadline=None)
@given(case=label_cases(), jump_rows=st.sampled_from([0, 1, 3, 40, 2**10]),
       seed=st.integers(0, 2**32 - 1))
@example(case=(1, np.array([0]), np.array([0, 0])), jump_rows=0, seed=1)  # N = 1
# scattered then clustered, as the hybrid design looks up, and the reverse
@example(case=(3000, np.array([2999, 7, 1500, 7]), np.arange(100, 180)), jump_rows=3, seed=2)
@example(case=(3000, np.arange(100, 180), np.array([2999, 7, 1500, 7])), jump_rows=3, seed=2)
# blocks whose gaps of 40 rows or fewer merge them into one run
@example(case=(3000, np.r_[10:20, 60:70, 71:80], slice(None)), jump_rows=40, seed=3)
def test_stochastic_lookups_equal_the_full_draw(case, jump_rows, seed):
    n, first, second = case
    pop = _propensity_population(np.random.default_rng(seed).integers(0, 3, n))
    u = np.random.default_rng(seed).random(n)
    with patch.object(population_mod, "_JUMP_ROWS", jump_rows):
        lookup = StochasticLabels(pop, np.random.default_rng(seed))
        for idx in (first, second):
            want = population_mod._classify(u[idx], pop.modes[idx], pop.propensities)
            got = lookup[idx]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_clustered_lookup_draws_only_its_runs():
    # 100 PSUs of 50 of 240k households: one allocation of N uniforms would
    # be four times this bound.
    n = 240_000
    pop = _propensity_population(np.arange(n) % 3, np.repeat(np.arange(2000), n // 2000))
    rows = two_stage_select(pop, 100, 50, np.random.default_rng(2)).unit_idx
    labels, peak = _traced_peak(lambda: StochasticLabels(pop, np.random.default_rng(3))[rows])
    assert peak < n * 8 / 4
    u = np.random.default_rng(3).random(n)[rows]
    assert labels.tobytes() == population_mod._classify(
        u, pop.modes[rows], pop.propensities).tobytes()
