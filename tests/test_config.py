"""Config documents mutated by Hypothesis: ``mmsim run`` ends with a
documented exit code and never raises, and an unknown key or a value of
the wrong YAML type is named by its dotted path."""

import contextlib
import copy
import csv
import io
import math
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mmsim.cli import main
from mmsim.errors import ConfigError
from mmsim.montecarlo import DesignSpec

# A small valid document: a synthetic population and a hybrid design.
BASE = {
    "population": {
        "synthetic": {
            "n_psus": 6, "households_min": 10, "households_max": 12,
            "share_web": 0.5, "share_mail": 0.25, "icc_outcome": 0.02, "icc_response": 0.02,
            "seed": 3,
            "variables": [
                {"name": "v1", "kind": "binary",
                 "mean_web": 0.6, "mean_mail": 0.5, "mean_ftf": 0.4},
                {"name": "v2", "kind": "continuous",
                 "mean_web": 2.0, "mean_mail": 1.5, "mean_ftf": 1.0, "sd": 0.5},
            ],
        },
        "propensities": {"WEB": [0.6, 0.3], "MAIL": [0.3, 0.4], "FTF": [0.15, 0.45]},
    },
    "scenario": {
        "id": "PROP", "rule": "B", "iterations": 3, "seed": 7, "compositing": "effective",
        "icc_planning": 0.02, "n_hat": "composite",
        "design": {"kind": "hybrid", "n_unclustered": 20, "n_psus": 3, "m_per_psu": 5,
                   "omega": 1.0, "n_sub_psus": 0},
        "estimators": [{"id": "T2"}, {"id": "TDF1", "label": "TDF1_fixed", "compositing": 0.3}],
    },
    "output": {"dir": "out"},
}

# Every integer stays small: a large n_psus or households_max allocates without limit.
VALUES = st.one_of(st.sampled_from(["x", True, False, [], [1], {}, {"a": 1}, None, math.nan]),
                   st.integers(-60, 60))


def _nodes(node, path=()):
    """(path, value) of every value under ``node``; a path holds keys and indices."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _dotted(path) -> str:
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else f".{key}" if out else key
    return out or "config"


def _wrong_type(key, old, new) -> bool:
    """Whether ``new`` is not of the YAML type that ``old``'s key accepts."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if new is None:  # a null key is an absent one
        return False
    if key == "compositing":  # 'effective' or a number
        return not (isinstance(new, str) or number(new))
    if isinstance(old, float):
        return not number(new)
    if isinstance(old, int):
        return not number(new) or isinstance(new, float)
    return not isinstance(new, type(old))


@st.composite
def mutated_documents(draw):
    """A mutation of ``BASE``: its kind, the dotted path it must name (or
    None when any exit code will do), and the document."""
    doc = copy.deepcopy(BASE)
    kind = draw(st.sampled_from(["delete", "swap", "unknown"]))
    if kind == "unknown":
        parent = draw(st.sampled_from(
            [()] + [p for p, v in _nodes(doc) if isinstance(v, dict)]))
        _at(doc, parent)["bogus_key"] = draw(VALUES)
        return kind, _dotted(parent), doc
    if kind == "delete":
        path = draw(st.sampled_from([p for p, _ in _nodes(doc) if isinstance(p[-1], str)]))
        del _at(doc, path[:-1])[path[-1]]
        return kind, None, doc
    path = draw(st.sampled_from([p for p, _ in _nodes(doc)]))
    old = _at(doc, path)
    new = draw(st.one_of(VALUES, st.just(2**64)) if path[-1] == "seed" else VALUES)
    _at(doc, path[:-1])[path[-1]] = new
    wrong = _wrong_type(path[-1], old, new)
    return ("wrong type" if wrong else kind), _dotted(path) if wrong else None, doc


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutated_documents())
def test_mutated_config_exits_with_a_documented_code(case):
    kind, field, doc = case
    event(kind)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.yaml"
        cfg.write_text(yaml.safe_dump(doc, sort_keys=False))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(cfg), "--quiet", "--out", f"{tmp}/out"])
        event(f"exit {code}")
        assert code in (0, 2, 3, 4), err.getvalue()
        if field is not None:
            assert code == 2, (kind, field)
            assert field in err.getvalue(), (kind, field, err.getvalue())
        if code == 0:  # a run that succeeds reports numbers
            with open(Path(tmp) / "out" / "summary.csv") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
            assert all(math.isfinite(float(r["rb"])) for r in rows), rows


def test_indivisible_counts_rejected(tmp_path, capsys):
    # 1 of 3 and 3 of 10 PSUs followed up form gcd = 1 balanced variance unit
    for n_psus, n_sub in ((3, 1), (10, 3)):
        design = {"kind": "two_phase_psu", "n_psus": n_psus, "m_per_psu": 5,
                  "n_sub_psus": n_sub}
        with pytest.raises(ConfigError, match=rf"^scenario\.design\.n_sub_psus: {n_sub} of "
                                              rf"{n_psus} PSUs form gcd = 1 .* need at least 2$"):
            DesignSpec(**design)
        doc = copy.deepcopy(BASE)
        doc["scenario"].update(design=design, estimators=[{"id": "T2"}])
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert main(["run", "--config", str(cfg), "--quiet", "--out", str(tmp_path / "out")]) == 2
        assert f"scenario.design.n_sub_psus: {n_sub} of {n_psus} PSUs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, value, message", [
    (("scenario", "compositing"), [1], "scenario.compositing: expected int, float or str, got list"),
    (("scenario", "iterations"), True, "scenario.iterations: expected int, got bool"),
])
def test_wrong_type_names_the_expected_types(tmp_path, capsys, path, value, message):
    doc = copy.deepcopy(BASE)
    _at(doc, path[:-1])[path[-1]] = value
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["run", "--config", str(cfg), "--quiet", "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
