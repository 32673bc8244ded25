"""Data-collection protocol and weighted response rates.

The protocol is applied in two passes when there is a follow-up phase:
first a web-only pass to set the web response indicators (the follow-up
subsample is drawn from web nonrespondents, so it needs those first),
then the full pass that lets flagged ftf-respondent households respond.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .population import LABEL_FTF, LABEL_WEB, _derive
from .sampling import DrawnSample

WEB_ONLY = "web_only"
WEB_THEN_FTF = "web_then_ftf"


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


def apply_protocol(sample: DrawnSample, labels: np.ndarray, protocol: str) -> DrawnSample:
    """Set response indicators from population labels.

    delta_w = 1 iff the household is a web respondent.  Under the full
    protocol, delta_f = 1 iff it is an ftf respondent *and* was flagged
    for follow-up.  Nonrespondent households never respond.
    """
    lab = labels[sample.unit_idx]
    delta_w = (lab == LABEL_WEB).astype(np.uint8)
    if protocol == WEB_ONLY:
        delta_f = np.zeros(sample.n_units, dtype=np.uint8)
    elif protocol == WEB_THEN_FTF:
        if sample.followup.kind == "none":
            raise EstimationError(
                "web_then_ftf protocol requires follow-up flags; "
                "run a follow-up subsampling step first"
            )
        delta_f = ((lab == LABEL_FTF) & sample.flags()).astype(np.uint8)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    return _derive(sample, delta_w=delta_w, delta_f=delta_f)


def response_rates(sample: DrawnSample) -> ResponseRates:
    """Design-weighted web, conditional ftf, and overall response rates."""
    if sample.delta_w is None or sample.delta_f is None:
        raise EstimationError("response indicators are unset")
    d = sample.d
    dw = sample.delta_w.astype(float)
    df = sample.delta_f.astype(float)
    n_hat = float(d.sum())
    w_hat = float((d * dw).sum())
    m_hat = float((d * (1.0 - dw)).sum())
    r_w = w_hat / n_hat
    if m_hat == 0.0:
        r_f = 0.0  # nobody left after the web phase
    elif sample.followup.kind == "none":
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
