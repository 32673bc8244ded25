"""Closed-form planning calculators for multimode follow-up designs.

Design effects decompose into a differential-weighting component (Kish)
and a clustering component 1 + icc*(m - 1); for unequal completes per
cluster the Holt size m' = sum(m_i^2)/sum(m_i) replaces the mean.  A
composite of two independent samples has effective size
1 / (lam^2 * deff_a/n_a + (1-lam)^2 * deff_b/n_b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


def kish_weighting_deff(weights) -> float:
    """n * sum(w^2) / (sum w)^2; 1.0 iff all weights are equal."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ValidationError("empty weight vector")
    if (w <= 0).any():
        raise ValidationError("weights must be positive")
    return float(len(w) * (w**2).sum() / w.sum() ** 2)


def holt_m_prime(m_i) -> float:
    """Effective completes per cluster under unequal cluster sizes."""
    m = np.asarray(m_i, dtype=float)
    if m.size == 0 or m.sum() <= 0:
        raise ValidationError("cluster counts must have a positive sum")
    if (m < 0).any():
        raise ValidationError("cluster counts must be nonnegative")
    return float((m**2).sum() / m.sum())


def clustering_deff(m: float, icc: float) -> float:
    """1 + icc*(m - 1) for m completes per cluster."""
    if m < 1:
        raise ValidationError("completes per cluster must be >= 1")
    if not 0.0 <= icc < 1.0:
        raise ValidationError("icc must be in [0, 1)")
    return 1.0 + icc * (m - 1.0)


def composite_effective_n(lam: float, n_a: float, deff_a: float,
                          n_b: float, deff_b: float) -> float:
    """Effective size of lam-composited independent estimates."""
    if not 0.0 <= lam <= 1.0:
        raise ValidationError("lambda must be in [0, 1]")
    if min(deff_a, deff_b) < 1.0:
        raise ValidationError("design effects must be >= 1")
    if lam == 1.0:
        return n_a / deff_a
    if lam == 0.0:
        return n_b / deff_b
    if min(n_a, n_b) <= 0:
        raise ValidationError("sample sizes must be positive")
    return 1.0 / (lam**2 * deff_a / n_a + (1.0 - lam) ** 2 * deff_b / n_b)


def expected_completes(n_sampled: float, web_rate: float, ftf_rate: float,
                       followup_fraction: float) -> tuple[float, float]:
    """Expected web and ftf completes for n sampled households.

    ``followup_fraction`` is the share of web nonrespondents followed up
    (the unit subsampling fraction, the PSU subsampling fraction, or 1).
    """
    for r in (web_rate, ftf_rate, followup_fraction):
        if not 0.0 <= r <= 1.0:
            raise ValidationError("rates must lie in [0, 1]")
    web = n_sampled * web_rate
    ftf = n_sampled * (1.0 - web_rate) * followup_fraction * ftf_rate
    return web, ftf


@dataclass(frozen=True)
class PlanParams:
    """Inputs for the three-design planning comparison.

    Defaults reproduce the canonical 10,000-complete example: a 200-PSU
    unit-subsampling design, a 700-PSU design with ftf in a 200-PSU
    subsample, and a hybrid with a 20,000-household unclustered sample.
    """

    icc: float = 0.02
    web_rate: float = 0.25
    ftf_rate: float = 0.5
    unit_n_psus: int = 200
    unit_hh_per_psu: int = 140
    unit_ftf_take: int = 30  # nonrespondents followed per PSU
    psu_n_psus: int = 700
    psu_sub_psus: int = 200
    psu_hh_per_psu: int = 40
    hybrid_n_psus: int = 200
    hybrid_hh_per_psu: int = 40
    hybrid_unclustered_n: int = 20000

    def __post_init__(self):
        counts = ("unit_n_psus", "unit_hh_per_psu", "unit_ftf_take", "psu_n_psus", "psu_sub_psus",
                  "psu_hh_per_psu", "hybrid_n_psus", "hybrid_hh_per_psu", "hybrid_unclustered_n")
        rules = [(name, ">= 1", getattr(self, name) >= 1) for name in counts] + [
            ("web_rate", "in [0, 1)", 0.0 <= self.web_rate < 1.0),  # 1 - web_rate divides
            ("ftf_rate", "in [0, 1]", 0.0 <= self.ftf_rate <= 1.0),
            ("ftf_rate", "> 0 when web_rate is 0", self.web_rate > 0.0 or self.ftf_rate > 0.0),
            ("psu_sub_psus", "<= psu_n_psus", self.psu_sub_psus <= self.psu_n_psus),
            ("unit_ftf_take", "<= the expected nonrespondents per PSU",
             self.unit_ftf_take <= self.unit_hh_per_psu * (1.0 - self.web_rate))]
        for name, rule, ok in rules:
            if not ok:
                raise ValidationError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass(frozen=True)
class DesignPlan:
    design: str
    web_completes: float
    ftf_completes: float
    weighting_deff: float
    clustering_deff: float
    overall_deff: float
    effective_n: float
    detail: dict = field(default_factory=dict)


def plan_three_designs(p: PlanParams = PlanParams()) -> tuple[DesignPlan, DesignPlan, DesignPlan]:
    """Side-by-side precision planning for the three follow-up designs."""
    # Unit subsampling: equal takes per PSU, ftf expansion on the followed.
    nonresp = p.unit_hh_per_psu * (1.0 - p.web_rate)
    omega = p.unit_ftf_take / nonresp
    web_u, ftf_u = expected_completes(p.unit_hh_per_psu, p.web_rate, p.ftf_rate, omega)
    weights = np.concatenate([np.ones(round(web_u)), np.full(round(ftf_u), 1.0 / omega)])
    kish_u = kish_weighting_deff(weights)
    m_u = web_u + ftf_u
    clus_u = clustering_deff(m_u, p.icc)
    n_u = p.unit_n_psus * m_u
    unit = DesignPlan(
        design="unit_subsampling",
        web_completes=p.unit_n_psus * web_u,
        ftf_completes=p.unit_n_psus * ftf_u,
        weighting_deff=kish_u,
        clustering_deff=clus_u,
        overall_deff=kish_u * clus_u,
        effective_n=n_u / (kish_u * clus_u),
        detail={"omega": omega, "completes_per_psu": m_u},
    )

    # PSU subsampling: web everywhere, ftf only in the subsampled PSUs.
    frac = p.psu_sub_psus / p.psu_n_psus
    web_p = p.psu_hh_per_psu * p.web_rate
    ftf_p = p.psu_hh_per_psu * (1.0 - p.web_rate) * p.ftf_rate
    n_web = p.psu_n_psus * web_p
    n_ftf = p.psu_sub_psus * ftf_p
    weights = np.concatenate([np.ones(round(n_web)), np.full(round(n_ftf), 1.0 / frac)])
    kish_p = kish_weighting_deff(weights)
    m_prime = holt_m_prime(
        [web_p] * (p.psu_n_psus - p.psu_sub_psus) + [web_p + ftf_p] * p.psu_sub_psus
    )
    clus_p = clustering_deff(m_prime, p.icc)
    psu = DesignPlan(
        design="psu_subsampling",
        web_completes=n_web,
        ftf_completes=n_ftf,
        weighting_deff=kish_p,
        clustering_deff=clus_p,
        overall_deff=kish_p * clus_p,
        effective_n=(n_web + n_ftf) / (kish_p * clus_p),
        detail={"m_prime": m_prime, "psu_fraction": frac},
    )

    # Hybrid: all web completes pooled against the clustered ftf completes.
    web_b = p.hybrid_n_psus * p.hybrid_hh_per_psu * p.web_rate
    ftf_b = p.hybrid_n_psus * p.hybrid_hh_per_psu * (1.0 - p.web_rate) * p.ftf_rate
    web_a = p.hybrid_unclustered_n * p.web_rate
    m_b = (web_b + ftf_b) / p.hybrid_n_psus
    deff_b = clustering_deff(m_b, p.icc)
    n_web_all = web_a + web_b
    total = n_web_all + ftf_b
    lam = n_web_all / total  # proportional to completes
    eff = composite_effective_n(lam, n_web_all, 1.0, ftf_b, deff_b)
    hybrid = DesignPlan(
        design="hybrid",
        web_completes=n_web_all,
        ftf_completes=ftf_b,
        weighting_deff=1.0,
        clustering_deff=deff_b,
        overall_deff=total / eff,
        effective_n=eff,
        detail={"lambda": lam, "clustered_completes_per_psu": m_b},
    )
    return unit, psu, hybrid


def format_plan_table(plans) -> str:
    """Human-readable table for the deff CLI subcommand."""
    header = f"{'design':<18}{'web':>9}{'ftf':>9}{'deff_w':>9}{'deff_c':>9}{'deff':>8}{'eff_n':>9}"
    lines = [header, "-" * len(header)]
    for p in plans:
        lines.append(
            f"{p.design:<18}{p.web_completes:>9.0f}{p.ftf_completes:>9.0f}"
            f"{p.weighting_deff:>9.4f}{p.clustering_deff:>9.4f}"
            f"{p.overall_deff:>8.3f}{p.effective_n:>9.0f}"
        )
    return "\n".join(lines)
