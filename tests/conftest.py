from types import SimpleNamespace

import numpy as np
import pytest

from mmsim.population import Population, SyntheticPopSpec, VariableSpec, psu_frame_of
from mmsim.sampling import DrawnSample, _pps_draw, _pps_frame
from mmsim.variance import block_variances, first_stage_units


def make_population(y, psu_ids, modes=None, labels=None, variable_names=None):
    """Hand-built population from per-household rows, all in the web mode
    unless ``modes`` is given."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if y.shape[0] == 1 and len(psu_ids) > 1:
        y = y.T
    names = variable_names or tuple(f"v{j + 1}" for j in range(y.shape[1]))
    return Population(
        **psu_frame_of(np.asarray(psu_ids, dtype=np.int64)),
        **outcome_stores(tuple(y.T)),
        modes=np.zeros(len(psu_ids), np.int8) if modes is None else np.asarray(modes, np.int8),
        labels=None if labels is None else np.asarray(labels, dtype=np.int8),
        variable_names=tuple(names),
    )


def outcome_stores(columns):
    """``Population`` outcome fields holding ``columns``, one array per
    variable: the uint8 ones packed into ``bits`` by ``np.packbits``, the
    others float64 in ``block``."""
    n = len(columns[0])
    binary = tuple(c.dtype == np.uint8 for c in columns)
    bits = [c for c, b in zip(columns, binary) if b]
    other = [c for c, b in zip(columns, binary) if not b]
    return {"bits": np.packbits(np.array(bits, np.uint8).reshape(-1, n).T, axis=1),
            "block": np.array(other, dtype=float).reshape(-1, n).T.copy(),
            "binary": binary}


def pps_draw(sizes, n_psus, rng):
    """Randomized-order systematic PPS selection of ``n_psus`` of the PSUs
    of ``sizes``: (selected indices, their inclusion probabilities), from
    the frame and draw ``two_stage_select`` uses."""
    return _pps_draw(_pps_frame(np.arange(len(sizes)), sizes, n_psus, 1), rng)


SMALL_SPEC = SyntheticPopSpec(
    n_psus=150,
    households_min=80,
    households_max=120,
    share_web=0.48,
    share_mail=0.26,
    variables=(
        VariableSpec("v1", 0.88, 0.82, 0.77),
        VariableSpec("v3", 0.45, 0.35, 0.28),
        VariableSpec("inc", 0.75, 0.62, 0.52, kind="continuous", sd=0.55),
    ),
    icc_outcome=0.02,
    icc_response=0.02,
    seed=1234,
)


@pytest.fixture(scope="session")
def small_synthetic():
    from mmsim.population import generate_synthetic

    return generate_synthetic(SMALL_SPEC)


def toy_sample(d, delta_w, delta_f=None, elig=None, psu_ids=None,
               clustered=True, ftf_rate=1.0, psu_subsample=None, tag="S"):
    """Directly assemble a DrawnSample in a fixed response state.

    A clustered sample draws every PSU in ``psu_ids``, each household's PSU
    id.  With a ``psu_subsample``, a set of those ids, its ftf_rate is the
    subsampled share of those PSUs.
    """
    d = np.asarray(d, dtype=float)
    n = len(d)
    delta_w = np.asarray(delta_w, dtype=np.uint8)
    delta_f = (np.zeros(n, dtype=np.uint8) if delta_f is None
               else np.asarray(delta_f, dtype=np.uint8))
    psu_ids = (np.zeros(n, dtype=np.int64) if psu_ids is None
               else np.asarray(psu_ids, dtype=np.int64))
    psus, psu_code = np.unique(psu_ids, return_inverse=True) if clustered else (None, None)
    if psu_subsample is not None:
        ftf_rate = len(psu_subsample) / len(psus)
        psu_subsample = np.isin(psus, sorted(psu_subsample))
    if elig is None:
        if psu_subsample is not None:
            elig = psu_subsample[psu_code] & (delta_w == 0)
        elif ftf_rate == 1.0:
            elig = delta_w == 0
        else:
            raise ValueError("explicit eligibility needed for this follow-up rate")
    return DrawnSample(
        tag=tag, unit_idx=np.arange(n), d=d, psus=psus, psu_code=psu_code, ftf_rate=ftf_rate,
        psu_subsample=psu_subsample, in_ftf_subsample=np.asarray(elig, dtype=bool),
        delta_w=delta_w, delta_f=delta_f,
    )


def random_case(rng):
    """A random small sample + outcome matrix covering all follow-up kinds.

    Constructed so that no estimator is degenerate: there is at least one
    web respondent and at least one ftf respondent among the eligible.
    """
    n = int(rng.integers(6, 40))
    n_psus = int(rng.integers(2, 6))
    d = rng.uniform(0.5, 10.0, n)
    psu_ids = np.sort(rng.integers(0, n_psus, n))
    if psu_ids[0] == psu_ids[-1]:  # variance needs at least 2 PSUs; no extra draw
        psu_ids[-1] += 1
    kind = ("all", "unit", "psu")[int(rng.integers(0, 3))]
    delta_w = (rng.random(n) < 0.45).astype(np.uint8)
    delta_w[int(rng.integers(0, n))] = 1
    nonresp = np.flatnonzero(delta_w == 0)
    if len(nonresp) == 0:
        delta_w[: max(2, n // 3)] = 0
        nonresp = np.flatnonzero(delta_w == 0)
    psu_subsample = None
    omega = 1.0
    if kind == "all":
        elig = delta_w == 0
    elif kind == "unit":
        omega = float(rng.uniform(0.3, 1.0))
        elig = np.zeros(n, dtype=bool)
        elig[rng.permutation(nonresp)[: max(1, int(len(nonresp) * omega))]] = True
    else:
        psus = np.unique(psu_ids)
        count = max(1, len(psus) // 2)
        psu_subsample = frozenset(int(p) for p in rng.permutation(psus)[:count])
        inside = np.isin(psu_ids, sorted(psu_subsample))
        elig = inside & (delta_w == 0)
        if not elig.any():  # make the subsample nonempty in eligible mass
            forced = int(nonresp[0])
            psu_subsample = frozenset(set(psu_subsample) | {int(psu_ids[forced])})
            inside = np.isin(psu_ids, sorted(psu_subsample))
            elig = inside & (delta_w == 0)
    delta_f = np.zeros(n, dtype=np.uint8)
    pool = np.flatnonzero(elig)
    take = max(1, int(round(len(pool) * float(rng.uniform(0.3, 1.0)))))
    delta_f[rng.permutation(pool)[:take]] = 1
    y = rng.normal(2.0, 1.5, size=(n, 2))
    sample = toy_sample(d, delta_w, delta_f, elig=elig, psu_ids=psu_ids,
                        ftf_rate=omega, psu_subsample=psu_subsample)
    return sample, y



# ---------------------------------------------------------------------------
# The estimators' weight form, an independent reference
# ---------------------------------------------------------------------------

def _masses(sample):
    """One sample's design weights d, response masks, follow-up rate omega and
    weighted masses: size n, web respondents w, nonrespondents m (me of them
    flagged for follow-up) and ftf respondents f."""
    d, web, ftf = np.asarray(sample.d, dtype=float), sample.delta_w == 1, sample.delta_f == 1
    return SimpleNamespace(
        d=d, web=web, ftf=ftf, omega=1.0 if sample.ftf_rate is None else sample.ftf_rate,
        n=d.sum(), w=d[web].sum(), m=d[~web].sum(), me=d[~web & sample.flags()].sum(),
        f=d[ftf].sum())


def _spread(s, mask, amount):
    """Weights adding up to ``amount`` over ``mask``, in proportion to d."""
    w = np.zeros_like(s.d)
    if amount:
        w[mask] = s.d[mask] * (amount / s.d[mask].sum())
    return w


def _one_sample(estimator, s):
    if estimator == "T1":  # the respondents, ftf ones expanded by 1/omega, carry n
        inv_r = s.n / (s.w + s.f / s.omega)
        return _spread(s, s.web, inv_r * s.w) + _spread(s, s.ftf, inv_r * s.f / s.omega)
    if estimator == "TA":
        return _spread(s, s.web, s.n)
    # web respondents keep d; ftf respondents carry the flagged nonrespondents
    # expanded by 1/omega (T2) or all the nonrespondents (T2_AltOmega)
    return _spread(s, s.web, s.w) + _spread(s, s.ftf, {"T2": s.me / s.omega,
                                                       "T2_AltOmega": s.m}[estimator])


def reference_weights(estimator, *samples, factor=None):
    """Respondent weights of ``estimator`` by sample tag, one vector over each
    sample's units, from the samples' ``d``, ``delta_w``, ``delta_f``,
    ``flags()`` and ``ftf_rate`` alone.  T1, T2, T2_AltOmega and TA take one
    sample; TDF1 and TDF2 (composite size) take samples A and B, and
    ``factor`` is their lam or kappa."""
    if len(samples) == 1:
        return {samples[0].tag: _one_sample(estimator, _masses(samples[0]))}
    a, b = samples
    sa, sb = _masses(a), _masses(b)
    if estimator == "TDF1":
        return {a.tag: factor * _one_sample("TA", sa), b.tag: (1 - factor) * _one_sample("T1", sb)}
    assert estimator == "TDF2", estimator
    gam = (sa.w + sb.w) / (sa.n + sb.n)  # pooled web response rate
    n_c = factor * sa.n + (1.0 - factor) * sb.n
    return {a.tag: _spread(sa, sa.web, factor * n_c * gam),
            b.tag: _spread(sb, sb.web, (1.0 - factor) * n_c * gam)
            + _spread(sb, sb.ftf, n_c * (1.0 - gam))}


def reference_total(weights, outcomes):
    """Sum of respondent weights times outcomes over the samples."""
    return sum(w @ outcomes[tag] for tag, w in weights.items())


def variance_of(result, plans=None):
    """A result's linearization variance, one score block at a time over its
    sample's first-stage units (``plans``: variance-unit plans by sample tag),
    added over the independent samples."""
    plans = plans or {}
    return sum((block_variances([b], first_stage_units(b.stats.sample,
                                                        plans.get(b.stats.sample.tag)))[0]
                for b in result.score_blocks), 0.0)


# ---------------------------------------------------------------------------
# Per-household scores and their variance, an independent reference
# ---------------------------------------------------------------------------

def household_scores(block):
    """The [K, n] scores d_i * (a[c_i] + b[c_i] * y_i) of a score block, one
    household at a time."""
    st = block.stats
    return st.d * (block.a[st.cls].T + block.b[st.cls] * st.yt)


def reference_variance(e, units):
    """The with-replacement variance of the [K, n] scores ``e`` over the
    ``first_stage_units`` ``units``: unit sums by one bincount that adds each
    unit's rows in order, then row-order sums of the (G, K) deviations."""
    codes, n_groups = units
    k = e.shape[0]
    totals = e.T.copy()
    if codes is not None:
        bins = (codes[:, None] * k + np.arange(k)).ravel()
        totals = np.bincount(bins, weights=totals.ravel(),
                             minlength=n_groups * k).reshape(n_groups, k)
    dev = totals - totals.sum(axis=0, keepdims=True) / n_groups
    dev *= dev
    return n_groups / (n_groups - 1.0) * dev.sum(axis=0)
