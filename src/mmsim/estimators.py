r"""Estimators of population totals for web-then-ftf data collection.

Five estimators of the total, all expressible as sums of respondent
weights times outcomes:

* ``uniform_adjustment_total`` (T1): one nonresponse adjustment 1/R
  spread over all respondents; ftf respondents additionally carry the
  follow-up expansion 1/omega.  Unbiased only if web respondents, ftf
  respondents and nonrespondents share the same mean.
* ``followup_adjustment_total`` (T2): web respondents keep their design
  weight; ftf respondents absorb the nonrespondents via the conditional
  ftf response rate and the follow-up expansion.  Unbiased if ftf
  respondents and nonrespondents share the same mean.  With
  ``expansion="realized"`` (T2_AltOmega) the fixed design expansion is
  replaced by the realized ratio of weighted nonrespondents to weighted
  nonrespondents inside the follow-up subsample.
* ``web_only_total`` (TA): ratio-adjusted total over web respondents of
  an unclustered sample.
* ``composite_total`` (TDF1): convex combination of TA on the
  unclustered sample and T1 on the clustered sample.
* ``web_composite_total`` (TDF2): composites only the web respondents of
  the two samples, then carries the nonrespondents on the clustered
  sample's ftf respondents.

Every result carries (a) the respondent weight vectors, built from the
weight-table rows, (b) linearization scores for variance estimation, and
(c) the bracket components (estimated N, shares, mode means); the three
representations agree to floating-point accuracy by construction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, ValidationError
from .response import ResponseRates, response_rates
from .sampling import DrawnSample

EST_T1 = "T1"
EST_T2 = "T2"
EST_T2_ALT = "T2_AltOmega"
EST_TA = "TA"
EST_TB1 = "TB1"
EST_TDF1 = "TDF1"
EST_TDF2 = "TDF2"

ALL_ESTIMATORS = (EST_T1, EST_T2, EST_T2_ALT, EST_TA, EST_TB1, EST_TDF1, EST_TDF2)


class DegenerateEstimate(EstimationError):
    """The sample realization does not support this estimator."""


@dataclass(frozen=True)
class WeightBlock:
    """Respondent weights for one constituent sample."""

    sample: DrawnSample
    positions: np.ndarray  # indices into the sample arrays
    weights: np.ndarray


@dataclass(frozen=True)
class ScoreBlock:
    """Per-unit linearized contributions d_k * z_k for one sample."""

    sample: DrawnSample
    e: np.ndarray  # [n_units, n_variables]


@dataclass(frozen=True)
class EstimatorResult:
    estimator: str
    total: np.ndarray  # [n_variables]
    n_hat: float
    rates: ResponseRates | None
    components: dict
    weight_blocks: tuple[WeightBlock, ...]
    score_blocks: tuple[ScoreBlock, ...]


@dataclass(frozen=True)
class CompositeFactors:
    lam: float
    kappa: float
    mode: str  # "effective" | "fixed"

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0 and 0.0 <= self.kappa <= 1.0):
            raise ValidationError("compositing factors must lie in [0, 1]")


@dataclass
class _Sums:
    d: np.ndarray
    dw: np.ndarray
    df: np.ndarray
    elig: np.ndarray
    n_hat: float
    w_hat: float
    m_hat: float
    me_hat: float
    f_hat: float
    a_w: np.ndarray
    a_f: np.ndarray
    ybar_w: np.ndarray = field(default=None)
    ybar_f: np.ndarray = field(default=None)


def _sums(sample: DrawnSample, y: np.ndarray) -> _Sums:
    if sample.delta_w is None or sample.delta_f is None:
        raise EstimationError("response indicators are unset")
    if y.shape[0] != sample.n_units:
        raise ValidationError("outcome matrix does not match the sample")
    d = sample.d
    dw = sample.delta_w.astype(float)
    df = sample.delta_f.astype(float)
    elig = sample.flags().astype(float)
    s = _Sums(
        d=d, dw=dw, df=df, elig=elig,
        n_hat=float(d.sum()),
        w_hat=float((d * dw).sum()),
        m_hat=float((d * (1.0 - dw)).sum()),
        me_hat=float((d * (1.0 - dw) * elig).sum()),
        f_hat=float((d * df).sum()),
        a_w=(d * dw) @ y,
        a_f=(d * df) @ y,
    )
    s.ybar_w = s.a_w / s.w_hat if s.w_hat > 0 else np.full(y.shape[1], np.nan)
    s.ybar_f = s.a_f / s.f_hat if s.f_hat > 0 else np.full(y.shape[1], np.nan)
    return s


def _omega(sample: DrawnSample, omega: float | None) -> float:
    if omega is not None:
        if not 0.0 < omega <= 1.0:
            raise ValidationError("omega must be in (0, 1]")
        return omega
    rate = sample.ftf_rate()
    return 1.0 if rate is None else rate


def uniform_adjustment_total(sample: DrawnSample, y: np.ndarray,
                             omega: float | None = None,
                             estimator: str = EST_T1) -> EstimatorResult:
    """T1: every respondent is adjusted by the same overall response rate.

    total = sum_k d_k (dw_k + df_k/omega) y_k / R,
    R = sum_k d_k (dw_k + df_k/omega) / sum_k d_k.
    """
    om = _omega(sample, omega)
    s = _sums(sample, y)
    g = s.dw + s.df / om  # per-unit response expansion
    num = float((s.d * g).sum())
    if num <= 0.0:
        raise DegenerateEstimate("no respondents; overall response rate is zero")
    r_hat = num / s.n_hat
    total = ((s.d * g) @ y) / r_hat
    ybar_t = total / s.n_hat

    resp = np.flatnonzero(g > 0)
    weights = s.d[resp] * g[resp] / r_hat
    z = ybar_t[None, :] + (g / r_hat)[:, None] * (y - ybar_t[None, :])
    return EstimatorResult(
        estimator=estimator,
        total=total,
        n_hat=s.n_hat,
        rates=response_rates(sample),
        components={
            "n_hat": s.n_hat, "r_hat": r_hat,
            "gamma_w": s.w_hat / s.n_hat, "gamma_f": (s.f_hat / om) / s.n_hat,
            "ybar_w": s.ybar_w, "ybar_f": s.ybar_f, "omega": om,
        },
        weight_blocks=(WeightBlock(sample, resp, weights),),
        score_blocks=(ScoreBlock(sample, s.d[:, None] * z),),
    )


def followup_adjustment_total(sample: DrawnSample, y: np.ndarray,
                              omega: float | None = None,
                              expansion: str = "design",
                              estimator: str | None = None) -> EstimatorResult:
    """T2 / T2_AltOmega: adjust only the ftf respondents.

    total = sum d dw y + (1/omega) * (ME/F) * sum d df y, where ME is the
    weighted nonrespondent mass inside the follow-up subsample and F the
    weighted ftf respondent mass, so ME/F is the reciprocal conditional
    ftf response rate.  ``expansion="realized"`` replaces (1/omega) * ME
    by M, the weighted nonrespondent mass of the whole sample.
    """
    if expansion not in ("design", "realized"):
        raise ValidationError(f"unknown expansion {expansion!r}")
    if estimator is None:
        estimator = EST_T2 if expansion == "design" else EST_T2_ALT
    if expansion == "realized" and sample.followup.kind != "psu":
        raise ValidationError("the realized expansion applies to PSU-subsampling designs")
    om = _omega(sample, omega)
    s = _sums(sample, y)

    if s.m_hat == 0.0:
        # Full web response: plain design-weighted total.
        total = s.a_w.copy()
        resp = np.flatnonzero(s.dw > 0)
        return EstimatorResult(
            estimator=estimator, total=total, n_hat=s.w_hat,
            rates=response_rates(sample),
            components={"n_hat": s.w_hat, "gamma_tilde": 1.0,
                        "ybar_w": s.ybar_w, "ybar_f": s.ybar_f, "carry": 0.0},
            weight_blocks=(WeightBlock(sample, resp, s.d[resp]),),
            score_blocks=(ScoreBlock(sample, s.d[:, None] * (s.dw[:, None] * y)),),
        )
    if s.me_hat == 0.0:
        raise DegenerateEstimate("nonrespondents exist but none were eligible for follow-up")
    if s.f_hat == 0.0:
        raise DegenerateEstimate("no ftf respondents; conditional ftf rate adjustment undefined")

    # carry = total weight placed on the ftf respondents.
    carry = s.me_hat / om if expansion == "design" else s.m_hat
    rf_inv = s.me_hat / s.f_hat  # reciprocal conditional ftf response rate
    total = s.a_w + (carry / s.f_hat) * s.a_f
    n_tilde = s.w_hat + carry

    resp_w = np.flatnonzero(s.dw > 0)
    resp_f = np.flatnonzero(s.df > 0)
    if expansion == "design":
        f_weights = s.d[resp_f] * (rf_inv / om)
        z = (s.dw[:, None] * y
             + ((s.me_hat / s.f_hat) / om) * s.df[:, None] * (y - s.ybar_f[None, :])
             + (1.0 / om) * (s.elig * (1.0 - s.dw))[:, None] * s.ybar_f[None, :])
    else:
        f_weights = s.d[resp_f] * (s.m_hat / s.f_hat)
        z = (s.dw[:, None] * y
             + (s.m_hat / s.f_hat) * s.df[:, None] * (y - s.ybar_f[None, :])
             + (1.0 - s.dw)[:, None] * s.ybar_f[None, :])
    return EstimatorResult(
        estimator=estimator,
        total=total,
        n_hat=n_tilde,
        rates=response_rates(sample),
        components={
            "n_hat": n_tilde, "gamma_tilde": s.w_hat / n_tilde,
            "ybar_w": s.ybar_w, "ybar_f": s.ybar_f,
            "carry": carry, "rf_inv": rf_inv, "omega": om,
        },
        weight_blocks=(WeightBlock(sample, resp_w, s.d[resp_w].copy()),
                       WeightBlock(sample, resp_f, f_weights)),
        score_blocks=(ScoreBlock(sample, s.d[:, None] * z),),
    )


def web_only_total(sample: DrawnSample, y: np.ndarray,
                   estimator: str = EST_TA) -> EstimatorResult:
    """TA: ratio-adjusted total over the web respondents."""
    s = _sums(sample, y)
    if s.w_hat == 0.0:
        raise DegenerateEstimate("no web respondents")
    total = s.n_hat * s.ybar_w
    resp = np.flatnonzero(s.dw > 0)
    rw_inv = s.n_hat / s.w_hat
    z = s.ybar_w[None, :] + rw_inv * s.dw[:, None] * (y - s.ybar_w[None, :])
    return EstimatorResult(
        estimator=estimator,
        total=total,
        n_hat=s.n_hat,
        rates=response_rates(sample),
        components={"n_hat": s.n_hat, "r_w": s.w_hat / s.n_hat, "ybar_w": s.ybar_w},
        weight_blocks=(WeightBlock(sample, resp, s.d[resp] * rw_inv),),
        score_blocks=(ScoreBlock(sample, s.d[:, None] * z),),
    )


def clustered_uniform_total(sample: DrawnSample, y: np.ndarray) -> EstimatorResult:
    """TB1: the uniform-adjustment estimator on a fully followed clustered sample."""
    return uniform_adjustment_total(sample, y, omega=1.0, estimator=EST_TB1)


def composite_total(res_a: EstimatorResult, res_b: EstimatorResult,
                    lam: float) -> EstimatorResult:
    """TDF1: lam * TA + (1 - lam) * TB1 over two independent samples."""
    if not 0.0 <= lam <= 1.0:
        raise ValidationError("lambda must be in [0, 1]")
    parts = []
    if lam > 0.0:
        parts.append((lam, res_a))
    if lam < 1.0:
        parts.append((1.0 - lam, res_b))
    total = sum(f * r.total for f, r in parts)
    n_hat = sum(f * r.n_hat for f, r in parts)
    return EstimatorResult(
        estimator=EST_TDF1,
        total=total,
        n_hat=float(n_hat),
        rates=None,
        components={"lam": lam,
                    "total_a": res_a.total if lam > 0 else None,
                    "total_b": res_b.total if lam < 1 else None},
        weight_blocks=tuple(
            WeightBlock(b.sample, b.positions, f * b.weights)
            for f, r in parts for b in r.weight_blocks
        ),
        score_blocks=tuple(
            ScoreBlock(b.sample, f * b.e) for f, r in parts for b in r.score_blocks
        ),
    )


def web_composite_total(sample_a: DrawnSample, y_a: np.ndarray,
                        sample_b: DrawnSample, y_b: np.ndarray,
                        kappa: float,
                        n_hat_mode: str = "composite",
                        frame_n: float | None = None) -> EstimatorResult:
    """TDF2: composite the web respondents of both samples, then carry the
    remaining share on the clustered sample's ftf respondents.

    total = N * G * [kappa*ybar_wa + (1-kappa)*ybar_wb] + N * (1-G) * ybar_fb,
    with G the pooled weighted web response rate over both samples and N
    either the kappa-composite of the two estimated totals (default) or a
    known frame size.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValidationError("kappa must be in [0, 1]")
    if n_hat_mode not in ("composite", "frame"):
        raise ValidationError(f"unknown n_hat mode {n_hat_mode!r}")
    if n_hat_mode == "frame" and not frame_n:
        raise ValidationError("frame n_hat mode requires the frame size")
    sa, sb = _sums(sample_a, y_a), _sums(sample_b, y_b)
    if kappa > 0.0 and sa.w_hat == 0.0:
        raise DegenerateEstimate("no web respondents in the unclustered sample")
    if kappa < 1.0 and sb.w_hat == 0.0:
        raise DegenerateEstimate("no web respondents in the clustered sample")
    nonresp_mass = sa.m_hat + sb.m_hat
    if nonresp_mass > 0.0 and sb.f_hat == 0.0:
        raise DegenerateEstimate("nonrespondents exist but the clustered sample "
                                 "has no ftf respondents to carry them")

    sum_n = sa.n_hat + sb.n_hat
    gam = (sa.w_hat + sb.w_hat) / sum_n  # pooled web response rate
    n_c = float(frame_n) if n_hat_mode == "frame" else kappa * sa.n_hat + (1.0 - kappa) * sb.n_hat

    k = y_a.shape[1]
    pooled_web = np.zeros(k)
    if kappa > 0.0:
        pooled_web += kappa * sa.ybar_w
    if kappa < 1.0:
        pooled_web += (1.0 - kappa) * sb.ybar_w
    ftf_part = (1.0 - gam) * sb.ybar_f if nonresp_mass > 0.0 else np.zeros(k)
    total = n_c * (gam * pooled_web + ftf_part)

    blocks = []
    if kappa > 0.0:
        pos = np.flatnonzero(sa.dw > 0)
        blocks.append(WeightBlock(sample_a, pos,
                                  sa.d[pos] * (kappa * n_c * gam / sa.w_hat)))
    if kappa < 1.0:
        pos = np.flatnonzero(sb.dw > 0)
        blocks.append(WeightBlock(sample_b, pos,
                                  sb.d[pos] * ((1.0 - kappa) * n_c * gam / sb.w_hat)))
    if nonresp_mass > 0.0:
        pos = np.flatnonzero(sb.df > 0)
        blocks.append(WeightBlock(sample_b, pos,
                                  sb.d[pos] * (n_c * (1.0 - gam) / sb.f_hat)))

    # Linearization.  The pooled rate couples the samples; each unit's
    # score collects its derivatives through N_c, the pooled rate, and
    # its own sample's means.
    ybar_fb = sb.ybar_f if nonresp_mass > 0.0 else np.zeros(k)
    shift = n_c * (pooled_web - ybar_fb) / sum_n  # [K] per unit of (dw - gam)
    level = total / n_c  # [K]

    z_a = (sa.dw - gam)[:, None] * shift[None, :]
    if n_hat_mode == "composite":
        z_a = z_a + kappa * level[None, :] * np.ones((sample_a.n_units, 1))
    if kappa > 0.0:
        z_a = z_a + (n_c * gam * kappa / sa.w_hat) * sa.dw[:, None] * (y_a - sa.ybar_w[None, :])

    z_b = (sb.dw - gam)[:, None] * shift[None, :]
    if n_hat_mode == "composite":
        z_b = z_b + (1.0 - kappa) * level[None, :] * np.ones((sample_b.n_units, 1))
    if kappa < 1.0:
        z_b = z_b + (n_c * gam * (1.0 - kappa) / sb.w_hat) * sb.dw[:, None] * (y_b - sb.ybar_w[None, :])
    if nonresp_mass > 0.0:
        z_b = z_b + (n_c * (1.0 - gam) / sb.f_hat) * sb.df[:, None] * (y_b - sb.ybar_f[None, :])

    return EstimatorResult(
        estimator=EST_TDF2,
        total=total,
        n_hat=n_c,
        rates=None,
        components={
            "n_hat": n_c, "gamma_pooled": gam, "kappa": kappa,
            "ybar_wa": sa.ybar_w, "ybar_wb": sb.ybar_w, "ybar_fb": sb.ybar_f,
        },
        weight_blocks=tuple(blocks),
        score_blocks=(ScoreBlock(sample_a, sa.d[:, None] * z_a),
                      ScoreBlock(sample_b, sb.d[:, None] * z_b)),
    )


def compute_factors(sample_a: DrawnSample, sample_b: DrawnSample,
                    icc: float, fixed: float | None = None) -> CompositeFactors:
    """Compositing factors as effective relative sample sizes.

    The clustered sample's effective size deflates its respondent count
    by 1 + icc*(mean completes per PSU - 1); the unclustered sample has
    design effect 1.  ``kappa`` uses web respondents only.  A ``fixed``
    value short-circuits the computation.
    """
    if fixed is not None:
        if not 0.0 <= fixed <= 1.0:
            raise ValidationError("fixed compositing factor must be in [0, 1]")
        return CompositeFactors(lam=fixed, kappa=fixed, mode="fixed")
    if sample_a.delta_w is None or sample_b.delta_w is None:
        raise EstimationError("response indicators are unset")
    n_psus = len(sample_b.psu_pi) if sample_b.psu_pi else len(np.unique(sample_b.psu_ids))

    def eff(count: int, clustered: bool) -> float:
        if count <= 0:
            raise EstimationError("zero respondents leave an effective size of zero")
        if not clustered:
            return float(count)
        deff = 1.0 + icc * (count / n_psus - 1.0)
        return count / max(deff, 1.0)

    resp_a = int(((sample_a.delta_w > 0) | (sample_a.delta_f > 0)).sum())
    resp_b = int(((sample_b.delta_w > 0) | (sample_b.delta_f > 0)).sum())
    web_a = int((sample_a.delta_w > 0).sum())
    web_b = int((sample_b.delta_w > 0).sum())
    ea, eb = eff(resp_a, False), eff(resp_b, True)
    wa, wb = eff(web_a, False), eff(web_b, True)
    return CompositeFactors(lam=ea / (ea + eb), kappa=wa / (wa + wb), mode="effective")


def bracket_total(result: EstimatorResult) -> np.ndarray:
    """Recompute the total from the bracket components (estimated size,
    shares, and mode means).  Used to check the algebraic identities."""
    c = result.components
    est = result.estimator
    if est in (EST_T1, EST_TB1):
        share = c["gamma_w"] + c["gamma_f"]
        out = c["gamma_w"] / share * np.nan_to_num(c["ybar_w"])
        out = out + c["gamma_f"] / share * np.nan_to_num(c["ybar_f"])
        return c["n_hat"] * out
    if est in (EST_T2, EST_T2_ALT):
        gam = c["gamma_tilde"]
        out = gam * np.nan_to_num(c["ybar_w"])
        if c["carry"] > 0:
            out = out + (1.0 - gam) * c["ybar_f"]
        return c["n_hat"] * out
    if est == EST_TA:
        return c["n_hat"] * c["ybar_w"]
    if est == EST_TDF1:
        lam = c["lam"]
        out = 0.0
        if lam > 0:
            out = out + lam * c["total_a"]
        if lam < 1:
            out = out + (1.0 - lam) * c["total_b"]
        return np.asarray(out)
    if est == EST_TDF2:
        gam = c["gamma_pooled"]
        kap = c["kappa"]
        web = np.zeros_like(result.total)
        if kap > 0:
            web = web + kap * c["ybar_wa"]
        if kap < 1:
            web = web + (1.0 - kap) * c["ybar_wb"]
        ftf = (1.0 - gam) * np.nan_to_num(c["ybar_fb"])
        return c["n_hat"] * (gam * web + ftf)
    raise ValidationError(f"unknown estimator {est!r}")


def weighted_total(result: EstimatorResult, outcomes: dict[str, np.ndarray]) -> np.ndarray:
    """Sum of respondent weights times outcomes, per weight-table rows.

    ``outcomes`` maps sample tags to the [n_units, K] matrices used when
    the estimator was computed.
    """
    total = np.zeros_like(result.total)
    for block in result.weight_blocks:
        y = outcomes[block.sample.tag]
        total = total + block.weights @ y[block.positions]
    return total


def export_weights_csv(result: EstimatorResult, pop_ids_by_tag: dict[str, np.ndarray], path) -> None:
    """Audit dump of the respondent weights: unit id, estimator, weight."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["id", "estimator", "weight"])
        for block in result.weight_blocks:
            ids = pop_ids_by_tag[block.sample.tag]
            for pos, wt in zip(block.positions, block.weights):
                w.writerow([int(ids[block.sample.unit_idx[pos]]),
                            result.estimator, repr(float(wt))])
