import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmsim.errors import ValidationError
from mmsim.population import _derive
from mmsim.sampling import (
    DrawnSample,
    followup_all_units,
    srswor,
    subsample_nonrespondents_units,
    subsample_psus,
    two_stage_select,
)

from conftest import make_population, pps_draw


def make_drawn(n, psu_ids=None, delta_w=None, psus=None, d=None):
    """A clustered sample of ``n`` households with PSU ids ``psu_ids`` (all
    0 by default) from the sampled PSUs ``psus`` (those ids by default)."""
    psu_ids = np.zeros(n, dtype=np.int64) if psu_ids is None else np.asarray(psu_ids)
    psus = np.unique(psu_ids) if psus is None else np.asarray(psus, dtype=np.int64)
    sample = DrawnSample(
        tag="S",
        unit_idx=np.arange(n),
        d=np.ones(n) if d is None else np.asarray(d, dtype=float),
        psus=psus,
        psu_code=np.searchsorted(psus, psu_ids),
    )
    if delta_w is not None:
        object.__setattr__(sample, "delta_w", np.asarray(delta_w, dtype=np.uint8))
        object.__setattr__(sample, "delta_f", np.zeros(n, dtype=np.uint8))
    return sample


# ---------------------------------------------------------------------------
# SRSWOR
# ---------------------------------------------------------------------------

def test_census_selects_everyone():
    pop = make_population(np.arange(12.0), np.zeros(12))
    s = srswor(pop, 12, np.random.default_rng(0))
    assert sorted(s.unit_idx) == list(range(12))
    np.testing.assert_array_equal(s.d, np.ones(12))


def test_unclustered_weights_are_population_over_sample():
    pop = make_population(np.zeros(1_000_000), np.zeros(1_000_000))
    s = srswor(pop, 2500, np.random.default_rng(1))
    assert s.n_units == 2500
    assert len(np.unique(s.unit_idx)) == 2500
    np.testing.assert_array_equal(s.d, np.full(2500, 400.0))


def test_srswor_inclusion_frequency():
    pop = make_population(np.zeros(40), np.zeros(40))
    rng = np.random.default_rng(2)
    reps = 20_000
    hits = sum(0 in srswor(pop, 10, rng).unit_idx for _ in range(reps))
    p = 10 / 40
    assert abs(hits / reps - p) <= 4 * math.sqrt(p * (1 - p) / reps)


def test_ht_population_size_is_exact():
    # sum of design weights equals N for every draw, so the
    # Horvitz-Thompson estimate of N is unbiased with zero MC error
    pop = make_population(np.zeros(200), np.repeat(np.arange(20), 10))
    rng = np.random.default_rng(3)
    for _ in range(50):
        assert srswor(pop, 17, rng).d.sum() == pytest.approx(200.0, rel=1e-12)
        assert two_stage_select(pop, 4, 5, rng).d.sum() == pytest.approx(200.0, rel=1e-12)


# ---------------------------------------------------------------------------
# PPS PSU selection
# ---------------------------------------------------------------------------

def test_pps_inclusion_probabilities_formula():
    sel, pi = pps_draw(np.array([10, 20, 30, 40]), 2, np.random.default_rng(4))
    assert len(sel) == 2
    expected = {0: 0.2, 1: 0.4, 2: 0.6, 3: 0.8}
    for s, p in zip(sel, pi):
        assert p == pytest.approx(expected[int(s)])
    assert sum(expected.values()) == pytest.approx(2.0)


def test_pps_equal_sizes_symmetry():
    sel, pi = pps_draw(np.full(10, 7.0), 3, np.random.default_rng(5))
    np.testing.assert_allclose(pi, 0.3)
    assert len(set(sel.tolist())) == 3


def test_pps_empirical_frequency():
    sizes = np.array([10.0, 20, 30, 40])
    rng = np.random.default_rng(6)
    reps = 20_000
    counts = np.zeros(4)
    for _ in range(reps):
        sel, _ = pps_draw(sizes, 2, rng)
        counts[sel] += 1
    pi = 2 * sizes / sizes.sum()
    for j in range(4):
        sd = math.sqrt(pi[j] * (1 - pi[j]) / reps)
        assert abs(counts[j] / reps - pi[j]) <= 4 * sd, j


def test_pps_rejects_certainty_psu():
    with pytest.raises(ValidationError, match="certainty"):
        pps_draw(np.array([1.0, 1, 1, 10]), 2, np.random.default_rng(7))


def test_pps_accepts_a_psu_of_probability_exactly_one():
    # a census of that PSU: only a probability above 1 is a certainty error
    for seed in range(20):
        selected, pi = pps_draw(np.array([50.0, 25, 25]), 2, np.random.default_rng(seed))
        assert 0 in selected and sorted(pi.tolist()) == [0.5, 1.0]


def test_pps_warns_on_large_first_stage_fractions():
    with pytest.warns(UserWarning, match="with-replacement variances"):
        pps_draw(np.full(4, 5.0), 2, np.random.default_rng(20))


def test_pps_warning_fires_once_per_design_and_names_it():
    pop = make_population(np.zeros(40), np.repeat(np.arange(4), 10))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for seed in range(5):
            two_stage_select(pop, 2, 3, np.random.default_rng(seed))
    assert [str(w.message) for w in caught] == [
        "max PSU inclusion probability 0.50 exceeds 0.2 drawing n_psus=2 of 4 PSUs; "
        "with-replacement variances will be conservative"]


# ---------------------------------------------------------------------------
# Two-stage selection
# ---------------------------------------------------------------------------

def test_two_stage_equal_takes_and_self_weighting(small_synthetic):
    pop = small_synthetic
    s = two_stage_select(pop, 50, 50, np.random.default_rng(8))
    assert s.n_units == 2500  # 50 PSUs x 50 households
    counts = np.bincount(s.psu_code, minlength=len(s.psus))
    assert (counts == 50).all()
    f = 50 * 50 / pop.n_households
    np.testing.assert_allclose(s.d * f, 1.0, rtol=1e-12)  # zero weight spread
    assert len(s.psus) == 50


def test_two_stage_rejects_small_psu():
    pop = make_population(np.zeros(34), np.repeat([0, 1, 2], [4, 15, 15]))
    with pytest.raises(ValidationError, match="PSU 0"):
        two_stage_select(pop, 2, 5, np.random.default_rng(9))


def test_two_stage_units_belong_to_selected_psus(small_synthetic):
    s = two_stage_select(small_synthetic, 20, 60, np.random.default_rng(10))
    np.testing.assert_array_equal(s.psus[s.psu_code], small_synthetic.psu_ids[s.unit_idx])
    _assert_psu_codes(small_synthetic, s)


def _assert_psu_codes(pop, s):
    """Households ascend by row, and each one's PSU code is its PSU id's
    position among the sampled PSUs."""
    assert (np.diff(s.unit_idx) > 0).all()
    assert s.psu_code.dtype == np.intp
    np.testing.assert_array_equal(s.psu_code, np.searchsorted(s.psus, pop.psu_ids[s.unit_idx]))


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(0, 5), min_size=2,
                    max_size=20, unique=True),
       size=st.integers(1, 4), data=st.data())
def test_two_stage_full_takes_read_every_member_row(ids, size, data):
    # Equal PSUs taken whole: the sample is every row of the selected PSUs,
    # whose ids lie in any order and whose rows interleave or not.
    rows = np.repeat(ids, size)
    if data.draw(st.booleans()):
        rows = rows[data.draw(st.permutations(range(len(rows))))]
    pop = make_population(np.zeros(len(rows)), rows)
    n_psus, seed = data.draw(st.integers(1, len(ids) - 1)), data.draw(st.integers(0, 99))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # large first-stage fractions
        s = two_stage_select(pop, n_psus, size, np.random.default_rng(seed))
    assert len(s.psus) == n_psus and (s.psus[1:] > s.psus[:-1]).all()
    np.testing.assert_array_equal(s.unit_idx, np.flatnonzero(np.isin(pop.psu_ids, s.psus)))
    _assert_psu_codes(pop, s)


# ---------------------------------------------------------------------------
# The vectorized draws against the per-PSU definitions
# ---------------------------------------------------------------------------

def _two_stage_reference(pop, n_psus, m_per_psu, rng):
    """Per-PSU definition of the two-stage take: PSU members gathered one
    PSU at a time, uniform keys ordered within PSUs by ``np.lexsort``."""
    psus, sizes = pop.psu_frame()
    sel, _ = pps_draw(sizes, n_psus, rng)
    f = n_psus * m_per_psu / pop.n_households
    sel_sizes = sizes[sel]
    members = np.concatenate([np.flatnonzero(pop.psu_ids == psus[c]) for c in sel])
    block = np.repeat(np.arange(len(sel)), sel_sizes)
    keys = rng.random(len(members))
    order = np.lexsort((keys, block))
    starts = np.cumsum(sel_sizes) - sel_sizes
    rank = np.arange(len(members)) - np.repeat(starts, sel_sizes)
    chosen = members[order[rank < m_per_psu]]
    chosen.sort()
    drawn = sorted(psus[sel].tolist())
    position = {psu: i for i, psu in enumerate(drawn)}
    return DrawnSample(
        tag="S", unit_idx=chosen, d=np.full(len(chosen), 1.0 / f), psus=np.asarray(drawn),
        psu_code=np.array([position[p] for p in pop.psu_ids[chosen].tolist()], dtype=np.intp),
    )


def _systematic_take(m, omega, rng):
    """Positions (0-based) of a fractional-interval systematic sample of a
    randomly ordered list of length m; every position has inclusion
    probability exactly omega."""
    if omega >= 1.0:
        return np.arange(m)
    interval = 1.0 / omega
    start = interval * (1.0 - rng.random())  # in (0, interval]
    count = int(np.floor((m - start) / interval)) + 1 if start <= m else 0
    if count <= 0:
        return np.empty(0, dtype=int)
    return np.ceil(start + interval * np.arange(count)).astype(int) - 1


def _unit_followup_reference(sample, omega, rng):
    """Per-PSU definition of the unit follow-up: PSUs in ascending id order,
    each a permutation of its nonrespondents, then a systematic take."""
    flags = np.zeros(sample.n_units, dtype=bool)
    nonresp = np.flatnonzero(sample.delta_w == 0)
    psu_ids = sample.psus[sample.psu_code]
    for psu in np.unique(psu_ids[nonresp]):
        pool = nonresp[psu_ids[nonresp] == psu]
        perm = rng.permutation(len(pool))
        take = _systematic_take(len(pool), omega, rng)
        flags[pool[perm[take]]] = True
    return _derive(sample, in_ftf_subsample=flags, ftf_rate=omega)


def _assert_same_sample(got, want):
    for field in ("unit_idx", "d", "psu_code"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert got.psus.dtype == want.psus.dtype and got.psus.tobytes() == want.psus.tobytes()
    assert got.flags().tobytes() == want.flags().tobytes()
    assert got.ftf_rate == want.ftf_rate


@st.composite
def clustered_layouts(draw):
    """A population of PSUs with distinct, unsorted, non-contiguous ids whose
    households are interleaved in row order, a two-stage design on it, and
    each household's web response."""
    m_per_psu = draw(st.integers(1, 12))
    n_frame = draw(st.integers(3, 12))
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=n_frame, max_size=n_frame,
                        unique=True))
    # sizes in [m, 2m], some exactly m; so no first-stage probability exceeds 2/3
    sizes = [m_per_psu + draw(st.sampled_from([0, 0, 1, 2, m_per_psu])) for _ in ids]
    rows = np.repeat(ids, sizes)[draw(st.permutations(range(sum(sizes))))]
    responds = draw(st.lists(st.sampled_from([0, 0, 1]), min_size=len(rows),
                             max_size=len(rows)))
    return rows.tolist(), m_per_psu, draw(st.integers(1, n_frame // 3)), responds


# PSU ids 30, 7, 5, 12 with 3 households each, all four PSUs selected; web
# nonrespondents: PSU 30 two, PSU 7 none, PSU 5 all three, PSU 12 one.
FOLLOWUP_LAYOUT = ([30, 7, 7, 30, 5, 5, 12, 12, 7, 30, 5, 12], 3, 4,
                   [0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1])


@settings(max_examples=150, deadline=None)
@given(layout=clustered_layouts(),
       omega=st.one_of(st.just(1.0), st.just(1e-3),
                       st.floats(0.01, 1.0, exclude_max=True)),
       seed=st.integers(0, 2**32 - 1))
@example(layout=FOLLOWUP_LAYOUT, omega=0.5, seed=3)
@example(layout=FOLLOWUP_LAYOUT, omega=1.0, seed=3)
@example(layout=FOLLOWUP_LAYOUT, omega=1e-3, seed=3)  # every take empty
def test_draws_match_per_psu_definitions(layout, omega, seed):
    psu_ids, m_per_psu, n_psus, responds = layout
    pop = make_population(np.zeros(len(psu_ids)), psu_ids)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # large first-stage fractions
        got = two_stage_select(pop, n_psus, m_per_psu, rng)
        want = _two_stage_reference(pop, n_psus, m_per_psu, ref_rng)
    _assert_same_sample(got, want)
    _assert_psu_codes(pop, got)
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    delta_w = np.asarray(responds, dtype=np.uint8)[got.unit_idx]
    got = _derive(got, delta_w=delta_w, delta_f=np.zeros_like(delta_w))
    want = _derive(want, delta_w=delta_w.copy(), delta_f=np.zeros_like(delta_w))
    got = subsample_nonrespondents_units(got, omega, rng)
    want = _unit_followup_reference(want, omega, ref_rng)
    _assert_same_sample(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class _Rigged:
    """Generator stand-in: real permutations, uniform arrays that take only
    four values (so the within-PSU key sort meets exact ties) or, with
    ``tiny``, are distinct multiples of 2**-53 that adding a PSU code of 1
    or more rounds together, and scalar uniforms fixed at ``u`` when it is
    given."""

    def __init__(self, seed, u=None, tiny=False):
        self._rng, self._u, self._tiny = np.random.default_rng(seed), u, tiny

    def permutation(self, n):
        return self._rng.permutation(n)

    def shuffle(self, x):
        x[:] = x[self._rng.permutation(len(x))]

    def random(self, size=None):
        if size is None:
            return self._rng.random() if self._u is None else self._u
        if self._tiny:
            return self._rng.permutation(size) * 2.0**-53
        return np.floor(self._rng.random(size) * 4) / 4


@pytest.mark.parametrize("seed", range(5))
def test_two_stage_breaks_exact_key_ties_like_lexsort(seed):
    # 5 of 30 PSUs, and 300 of 600, whose codes do not fit in uint8; keys
    # with exact ties, distinct keys that adding the PSU code rounds
    # together, and real keys
    generators = (lambda: _Rigged(seed), lambda: _Rigged(seed, tiny=True),
                  lambda: np.random.default_rng(seed))
    for n_frame, size, n_psus, m_per_psu in ((30, 40, 5, 25), (600, 6, 300, 4)):
        pop = make_population(np.zeros(n_frame * size),
                              np.repeat(np.arange(n_frame, 0, -1), size))
        for rng in generators:
            got = two_stage_select(pop, n_psus, m_per_psu, rng())
            want = _two_stage_reference(pop, n_psus, m_per_psu, rng())
            _assert_same_sample(got, want)
            _assert_psu_codes(pop, got)


@pytest.mark.parametrize("u", [0.5, 0.0, 0.75])
def test_unit_followup_start_on_the_last_position(u):
    # omega 0.5 and u 0.5 start at 1.0, exactly the single nonrespondent of
    # PSU 4; omega 0.25 and u 0.75 also start at 1.0 (PSU 4's list of one)
    s = make_drawn(9, psu_ids=[6, 4, 6, 2, 2, 2, 6, 4, 6], delta_w=[0, 0, 0, 0, 0, 0, 1, 1, 0],
                   psus=[2, 4, 6])
    for omega in (0.5, 0.25):
        got = subsample_nonrespondents_units(s, omega, _Rigged(1, u))
        want = _unit_followup_reference(s, omega, _Rigged(1, u))
        _assert_same_sample(got, want)


# ---------------------------------------------------------------------------
# Unit subsampling for follow-up
# ---------------------------------------------------------------------------

def test_omega_one_flags_all_nonrespondents():
    s = make_drawn(10, delta_w=[1, 0, 0, 1, 0, 1, 0, 0, 0, 1])
    out = subsample_nonrespondents_units(s, 1.0, np.random.default_rng(11))
    np.testing.assert_array_equal(out.flags(), np.asarray(s.delta_w) == 0)
    assert out.ftf_rate == 1.0


def test_half_rate_on_105_nonrespondents_takes_52_or_53():
    rng = np.random.default_rng(12)
    s = make_drawn(110, delta_w=[1] * 5 + [0] * 105)
    for _ in range(40):
        out = subsample_nonrespondents_units(s, 0.5, rng)
        assert int(out.flags().sum()) in (52, 53)
        assert not out.flags()[:5].any()  # respondents never flagged


def test_unit_subsample_take_is_unbiased():
    rng = np.random.default_rng(13)
    s = make_drawn(40, psu_ids=np.repeat([0, 1], 20),
                   delta_w=np.tile([1, 0, 0, 0], 10))
    omega = 0.35
    reps = 4000
    total = sum(subsample_nonrespondents_units(s, omega, rng).flags().sum()
                for _ in range(reps))
    n_nr = 30
    expect = omega * n_nr
    sd = math.sqrt(n_nr * omega * (1 - omega) / reps)  # conservative bound
    assert abs(total / reps - expect) <= 4 * sd


def test_unit_subsample_flags_each_nonrespondent_at_rate_omega():
    rng = np.random.default_rng(14)
    s = make_drawn(7, delta_w=[0, 0, 0, 0, 0, 1, 1])
    omega = 0.5
    reps = 20_000
    hits = np.zeros(7)
    for _ in range(reps):
        hits += subsample_nonrespondents_units(s, omega, rng).flags()
    sd = math.sqrt(omega * (1 - omega) / reps)
    np.testing.assert_array_less(np.abs(hits[:5] / reps - omega), 4 * sd)
    assert hits[5:].sum() == 0


# ---------------------------------------------------------------------------
# PSU subsampling for follow-up
# ---------------------------------------------------------------------------

def _clustered_sample(n_psus=4, per_psu=5, resp_every=2):
    n = n_psus * per_psu
    delta_w = (np.arange(n) % resp_every == 0).astype(int)
    return make_drawn(n, psu_ids=np.repeat(np.arange(n_psus), per_psu),
                      delta_w=delta_w, psus=np.arange(n_psus))


def test_full_psu_subsample_equals_all_units_followup():
    s = _clustered_sample()
    rng = np.random.default_rng(15)
    everything = subsample_psus(s, 4, rng)
    all_units = followup_all_units(s)
    np.testing.assert_array_equal(everything.flags(), all_units.flags())
    assert everything.ftf_rate == pytest.approx(1.0)


def test_psu_rate_is_count_over_sampled():
    s = _clustered_sample(n_psus=7)
    out = subsample_psus(s, 2, np.random.default_rng(16))
    assert out.ftf_rate == pytest.approx(2 / 7)
    # 700 PSUs subsampled to 200 gives the 3.5 expansion
    assert 1.0 / (200 / 700) == pytest.approx(3.5)


def test_psu_subsample_never_leaks_outside_chosen_psus():
    s = _clustered_sample()
    out = subsample_psus(s, 2, np.random.default_rng(17))
    assert out.psu_subsample[out.psu_code[out.flags()]].all()
    inside = out.psu_subsample[out.psu_code]
    np.testing.assert_array_equal(out.flags(), inside & (np.asarray(out.delta_w) == 0))


def test_psu_subsample_uniform_selection():
    s = _clustered_sample(n_psus=10)
    rng = np.random.default_rng(18)
    reps = 20_000
    hits = np.zeros(10)
    for _ in range(reps):
        out = subsample_psus(s, 5, rng)
        hits += out.psu_subsample  # the PSU ids are their positions 0..9
    sd = math.sqrt(0.25 / reps)
    np.testing.assert_array_less(np.abs(hits / reps - 0.5), 4 * sd)


def _psu_followup_reference(sample, count, rng):
    """``subsample_psus`` by its definition on PSU ids: the first ``count``
    of a permutation of the sampled ids, and the web nonrespondents in them."""
    chosen = frozenset(int(p) for p in rng.permutation(sample.psus)[:count])
    in_chosen = np.isin(sample.psus[sample.psu_code], sorted(chosen))
    return chosen, in_chosen & (sample.delta_w == 0)


@pytest.mark.parametrize("n_psus", [1, 2, 3, 10, 64, 97, 1000])
@pytest.mark.parametrize("seed", range(3))
def test_psu_followup_matches_the_id_definition(n_psus, seed):
    rng = np.random.default_rng(seed)
    psus = np.sort(rng.choice(10**6, n_psus, replace=False)) - 5 * 10**5  # some negative
    psu_ids = rng.permutation(np.repeat(psus, 3))
    s = make_drawn(len(psu_ids), psu_ids=psu_ids, delta_w=rng.integers(0, 2, len(psu_ids)),
                   psus=psus)
    for count in sorted({1, (n_psus + 1) // 2, n_psus}):
        got_rng, ref_rng = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
        out = subsample_psus(s, count, got_rng)
        chosen, flags = _psu_followup_reference(s, count, ref_rng)
        assert out.psu_subsample.sum() == count
        assert frozenset(s.psus[out.psu_subsample].tolist()) == chosen
        assert out.flags().tobytes() == flags.tobytes()
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

