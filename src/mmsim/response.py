"""Data collection and weighted response rates.

Each sample is collected in one step: a web push, then the optional
face-to-face (ftf) follow-up of a subsample of web nonrespondents.  The
follow-up subsample is drawn from the web outcome, so ``collect`` sets
the web response indicators before it runs the follow-up step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .population import LABEL_FTF, LABEL_WEB, StochasticLabels, _derive
from .sampling import DrawnSample


@dataclass(frozen=True)
class ResponseRates:
    """Weighted response rates for one sample.

    The conditional ftf rate ``r_f`` is computed over the ftf-eligible
    set (the follow-up subsample); it is NaN when nonrespondents exist
    but none were eligible.  The identity r = r_w + (1 - r_w) * r_f
    holds whenever r_f is defined.
    """

    r_w: float
    r_f: float
    r: float
    gamma_w_hat: float
    gamma_f_hat: float
    n_hat: float

    @property
    def degenerate(self) -> bool:
        return bool(np.isnan(self.r))


def collect(sample: DrawnSample, labels: np.ndarray | StochasticLabels,
            followup: Callable[[DrawnSample], DrawnSample] | None = None) -> DrawnSample:
    """Set response indicators from population labels.

    ``labels`` is anything indexed by population row that returns those
    rows' labels: a population-length array such as ``Population.labels``,
    or a lookup such as ``population.StochasticLabels`` that classifies
    only the rows asked for.  It is indexed once, with ``sample.unit_idx``.

    delta_w = 1 iff the household is a web respondent.  ``followup`` (for
    example ``sampling.followup_all_units`` or a ``subsample_*`` step with
    its rng bound) then flags web nonrespondents, and delta_f = 1 iff the
    household is an ftf respondent *and* was flagged.  Without a follow-up
    step nobody is flagged.  Nonrespondent households never respond.
    """
    lab = labels[sample.unit_idx]
    sample = _derive(sample, delta_w=(lab == LABEL_WEB).astype(np.uint8),
                     delta_f=np.zeros(sample.n_units, dtype=np.uint8))
    if followup is None:
        return sample
    sample = followup(sample)
    return _derive(sample, delta_f=((lab == LABEL_FTF) & sample.flags()).astype(np.uint8))


def response_rates(sample: DrawnSample) -> ResponseRates:
    """Design-weighted web, conditional ftf, and overall response rates of a
    sample ``collect`` has set the response indicators of."""
    d = sample.d
    dw = sample.delta_w.astype(float)
    df = sample.delta_f.astype(float)
    n_hat = float(d.sum())
    w_hat = float((d * dw).sum())
    m_hat = float((d * (1.0 - dw)).sum())
    r_w = w_hat / n_hat
    if m_hat == 0.0:
        r_f = 0.0  # nobody left after the web phase
    elif sample.ftf_rate is None:
        r_f = 0.0  # protocol has no second phase
    else:
        elig = sample.flags()
        me_hat = float((d * (1.0 - dw) * elig).sum())
        f_hat = float((d * df).sum())
        r_f = f_hat / me_hat if me_hat > 0.0 else float("nan")
    r = r_w + (1.0 - r_w) * r_f
    return ResponseRates(
        r_w=r_w,
        r_f=r_f,
        r=r,
        gamma_w_hat=r_w,
        gamma_f_hat=(1.0 - r_w) * r_f,
        n_hat=n_hat,
    )
