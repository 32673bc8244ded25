r"""Estimators of population totals for web-then-ftf data collection.

Five estimators of the total, all expressible as sums of respondent
weights times outcomes:

* ``uniform_adjustment`` (T1): one nonresponse adjustment 1/R spread
  over all respondents; ftf respondents additionally carry the
  follow-up expansion 1/omega.  Unbiased only if web respondents, ftf
  respondents and nonrespondents share the same mean.  With omega = 1
  on the hybrid design's fully followed clustered sample it is TB1.
* ``followup_adjustment`` (T2): web respondents keep their design
  weight; ftf respondents absorb the nonrespondents via the conditional
  ftf response rate and the follow-up expansion.  Unbiased if ftf
  respondents and nonrespondents share the same mean.  With
  ``expansion="realized"`` (T2_AltOmega) the fixed design expansion is
  replaced by the realized ratio of weighted nonrespondents to weighted
  nonrespondents inside the follow-up subsample.
* ``web_only`` (TA): ratio-adjusted total over web respondents of an
  unclustered sample.
* ``composite_total`` (TDF1): convex combination of TA on the
  unclustered sample and T1 on the clustered sample.
* ``web_composite`` (TDF2): composites only the web respondents of the
  two samples, then carries the nonrespondents on the clustered
  sample's ftf respondents.

Every estimator but ``composite_total``, which combines two results,
reads the ``sample_stats`` of its samples: weighted masses and mode
means, built once per sample and shared by every estimator on it.
A result carries the closed-form total and, per sample, its score
coefficients: a household's linearization score is d * (a[c] + b[c] * y)
for its response class c (``sampling``: WEB, FTF, FLAGGED or OTHER), so
the score arithmetic is O(4 K) whatever the sample size.  The same
totals are sums of respondent weights times outcomes; that weight form
lives in the test suite as an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
# Unused here; perfbench/test_perfbench.py expects its tracer to wrap this
# name in this module.
from .response import response_rates  # noqa: F401
from .sampling import FLAGGED, FTF, WEB, DrawnSample

class DegenerateEstimate(EstimationError):
    """The sample realization does not support this estimator."""


@dataclass(frozen=True)
class ScoreBlock:
    """The linearization scores on one sample, d_i * (a[c_i] + b[c_i] * y_i)
    for household i of response class c_i."""

    stats: SampleStats
    a: np.ndarray  # [4, n_variables], rows in class order
    b: np.ndarray  # [4]


@dataclass(frozen=True)
class EstimatorResult:
    """A total and its score coefficients, one block per sample."""

    total: np.ndarray  # [n_variables]
    score_blocks: tuple[ScoreBlock, ...]


@dataclass(frozen=True)
class CompositeFactors:
    lam: float
    kappa: float


@dataclass(frozen=True)
class SampleStats:
    """Design-weighted masses, mode sums and means of one sample."""

    sample: DrawnSample
    yt: np.ndarray  # outcomes variables-major, [K, n]
    n_hat: float
    w_hat: float
    m_hat: float
    me_hat: float
    f_hat: float
    a_w: np.ndarray
    a_f: np.ndarray
    ybar_w: np.ndarray
    ybar_f: np.ndarray


def sample_stats(sample: DrawnSample, yt: np.ndarray) -> SampleStats:
    """The statistics every estimator reads of ``sample`` with [K, n] outcomes
    ``yt``; its sums are numpy reductions along rows of ``yt``, not BLAS."""
    d, cls = sample.d, sample.cls
    d_w, d_f = d * (cls == WEB), d * (cls == FTF)
    w_hat, f_hat = float(d_w.sum()), float(d_f.sum())
    a_w, a_f = (yt * d_w).sum(axis=1), (yt * d_f).sum(axis=1)
    return SampleStats(
        sample=sample, yt=yt, n_hat=float(d.sum()), w_hat=w_hat,
        m_hat=float((d * (cls != WEB)).sum()), f_hat=f_hat, a_w=a_w, a_f=a_f,
        me_hat=float((d * ((cls == FTF) | (cls == FLAGGED))).sum()),
        ybar_w=a_w / w_hat if w_hat > 0 else np.full(len(yt), np.nan),
        ybar_f=a_f / f_hat if f_hat > 0 else np.full(len(yt), np.nan),
    )


def uniform_adjustment(st: SampleStats) -> EstimatorResult:
    """T1: every respondent is adjusted by the same overall response rate.

    total = sum_k d_k (dw_k + df_k/omega) y_k / R,
    R = sum_k d_k (dw_k + df_k/omega) / sum_k d_k.
    """
    om = 1.0 if st.sample.ftf_rate is None else st.sample.ftf_rate
    g = np.array([1.0, 1.0 / om, 0.0, 0.0])  # response expansion dw + df/omega by class
    dg = st.sample.d * g[st.sample.cls]
    num = float(dg.sum())
    if num <= 0.0:
        raise DegenerateEstimate("no respondents; overall response rate is zero")
    r_hat = num / st.n_hat
    total = (st.yt * dg).sum(axis=1) / r_hat
    ybar_t = total / st.n_hat
    # d * (ybar_t + (g / R) * (y - ybar_t))
    slope = g / r_hat
    return EstimatorResult(total, (ScoreBlock(st, (1.0 - slope)[:, None] * ybar_t, slope),))


def followup_adjustment(st: SampleStats, expansion: str = "design") -> EstimatorResult:
    """T2 / T2_AltOmega: adjust only the ftf respondents.

    total = sum d dw y + (1/omega) * (ME/F) * sum d df y, where ME is the
    weighted nonrespondent mass inside the follow-up subsample and F the
    weighted ftf respondent mass, so ME/F is the reciprocal conditional
    ftf response rate.  ``expansion="realized"`` replaces (1/omega) * ME
    by M, the weighted nonrespondent mass of the whole sample.
    """
    om = 1.0 if st.sample.ftf_rate is None else st.sample.ftf_rate

    if st.m_hat == 0.0:
        # Full web response: plain design-weighted total.
        block = ScoreBlock(st, np.zeros((4, len(st.yt))), np.array([1.0, 0.0, 0.0, 0.0]))
        return EstimatorResult(st.a_w.copy(), (block,))
    if st.me_hat == 0.0:
        raise DegenerateEstimate("nonrespondents exist but none were eligible for follow-up")
    if st.f_hat == 0.0:
        raise DegenerateEstimate("no ftf respondents; conditional ftf rate adjustment undefined")

    # carry = total weight placed on the ftf respondents.
    carry = st.me_hat / om if expansion == "design" else st.m_hat
    total = st.a_w + (carry / st.f_hat) * st.a_f

    # weight factor of the ftf respondents over their design weight; ME/F is
    # the reciprocal conditional ftf response rate
    f_factor = st.me_hat / st.f_hat / om if expansion == "design" else st.m_hat / st.f_hat
    # d * (dw * y + f_factor * df * (y - ybar_f) + h * ybar_f), h by class:
    # 1/omega on the flagged nonrespondents, or 1 on all nonrespondents
    h = [0.0, 1.0 / om, 1.0 / om, 0.0] if expansion == "design" else [0.0, 1.0, 1.0, 1.0]
    slope = np.array([1.0, f_factor, 0.0, 0.0])
    a = (np.array(h) - (0.0, f_factor, 0.0, 0.0))[:, None] * st.ybar_f
    return EstimatorResult(total, (ScoreBlock(st, a, slope),))


def web_only(st: SampleStats) -> EstimatorResult:
    """TA: ratio-adjusted total over the web respondents."""
    if st.w_hat == 0.0:
        raise DegenerateEstimate("no web respondents")
    total = st.n_hat * st.ybar_w
    # d * (ybar_w + (N/W) * dw * (y - ybar_w))
    slope = np.array([st.n_hat / st.w_hat, 0.0, 0.0, 0.0])
    return EstimatorResult(total, (ScoreBlock(st, (1.0 - slope)[:, None] * st.ybar_w, slope),))


def composite_total(res_a: EstimatorResult, res_b: EstimatorResult,
                    lam: float) -> EstimatorResult:
    """TDF1: lam * TA + (1 - lam) * TB1 over two independent samples."""
    parts = []
    if lam > 0.0:
        parts.append((lam, res_a))
    if lam < 1.0:
        parts.append((1.0 - lam, res_b))
    total = sum(f * r.total for f, r in parts)
    return EstimatorResult(total, tuple(
        ScoreBlock(b.stats, f * b.a, f * b.b) for f, r in parts for b in r.score_blocks))


def web_composite(sa: SampleStats, sb: SampleStats, kappa: float,
                  n_hat_mode: str = "composite",
                  frame_n: float | None = None) -> EstimatorResult:
    """TDF2: composite the web respondents of both samples, then carry the
    remaining share on the clustered sample's ftf respondents.

    total = N * G * [kappa*ybar_wa + (1-kappa)*ybar_wb] + N * (1-G) * ybar_fb,
    with G the pooled weighted web response rate over both samples and N
    either the kappa-composite of the two estimated totals (default) or a
    known frame size.
    """
    if kappa > 0.0 and sa.w_hat == 0.0:
        raise DegenerateEstimate("no web respondents in the unclustered sample")
    if kappa < 1.0 and sb.w_hat == 0.0:
        raise DegenerateEstimate("no web respondents in the clustered sample")
    carried = sa.m_hat + sb.m_hat > 0.0  # nonrespondents to carry
    if carried and sb.f_hat == 0.0:
        raise DegenerateEstimate("nonrespondents exist but the clustered sample "
                                 "has no ftf respondents to carry them")

    sum_n = sa.n_hat + sb.n_hat
    gam = (sa.w_hat + sb.w_hat) / sum_n  # pooled web response rate
    n_c = float(frame_n) if n_hat_mode == "frame" else kappa * sa.n_hat + (1.0 - kappa) * sb.n_hat
    # each sample with its share of the web composite, and whether its ftf
    # respondents carry the nonrespondents
    shares = ((sa, kappa, False), (sb, 1.0 - kappa, carried))

    k = len(sa.yt)
    pooled_web = np.zeros(k)
    for st, part, _ in shares:
        if part > 0.0:
            pooled_web += part * st.ybar_w
    ybar_fb = sb.ybar_f if carried else np.zeros(k)
    total = n_c * (gam * pooled_web + (1.0 - gam) * ybar_fb)

    # Linearization.  The pooled rate couples the samples; each unit's
    # score collects its derivatives through N_c, the pooled rate, and
    # its own sample's means: d * ((dw - gam) * shift + part * level
    # + c_w * dw * (y - ybar_w) + c_f * df * (y - ybar_f)).
    shift = n_c * (pooled_web - ybar_fb) / sum_n  # [K] per unit of (dw - gam)
    level = total / n_c  # [K]
    blocks = []
    for st, part, carries in shares:
        a = (np.array([1.0, 0.0, 0.0, 0.0]) - gam)[:, None] * shift
        if n_hat_mode == "composite":
            a += part * level
        slope = np.zeros(4)
        if part > 0.0:
            slope[WEB] = n_c * gam * part / st.w_hat
            a[WEB] -= slope[WEB] * st.ybar_w
        if carries:
            slope[FTF] = n_c * (1.0 - gam) / st.f_hat
            a[FTF] -= slope[FTF] * st.ybar_f
        blocks.append(ScoreBlock(st, a, slope))
    return EstimatorResult(total, tuple(blocks))


def compute_factors(sample_a: DrawnSample, sample_b: DrawnSample,
                    icc: float, fixed: float | None = None) -> CompositeFactors:
    """Compositing factors as effective relative sample sizes.

    The clustered sample's effective size deflates its respondent count
    by 1 + icc*(mean completes per PSU - 1); the unclustered sample has
    design effect 1.  ``kappa`` uses web respondents only.  A ``fixed``
    value short-circuits the computation.
    """
    if fixed is not None:
        return CompositeFactors(lam=fixed, kappa=fixed)
    n_psus = len(sample_b.psus)

    def eff(counted: np.ndarray, clustered: bool) -> float:
        count = np.count_nonzero(counted)
        if count <= 0:
            raise EstimationError("zero respondents leave an effective size of zero")
        if not clustered:
            return float(count)
        deff = 1.0 + icc * (count / n_psus - 1.0)
        return count / max(deff, 1.0)

    # respondents are WEB and FTF, the two lowest classes
    ea, eb = eff(sample_a.cls <= FTF, False), eff(sample_b.cls <= FTF, True)
    wa, wb = eff(sample_a.cls == WEB, False), eff(sample_b.cls == WEB, True)
    return CompositeFactors(lam=ea / (ea + eb), kappa=wa / (wa + wb))

