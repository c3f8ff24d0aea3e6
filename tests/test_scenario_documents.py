"""Any scenario document ends a run in one of the two documented ways: a
valid report (exit 0) or one error line (exit 2). Numbers reach the limits
of a float, exponents pass 709 (``exp`` overflows past it) and integers
reach 1e30; no document may make ``stress run`` or ``stress validate`` exit
3, or put a non-finite number into a report."""

import contextlib
import io
import json
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geostress import cli
from geostress.model import HAZARD_TYPES
from geostress.scenarios import ScenarioKind
from test_golden import INPUTS, gen

_number = st.one_of(
    st.floats(min_value=0.0, max_value=1.7e308),
    st.floats(min_value=709.0, max_value=1e4),  # an exponent past 709
    st.integers(min_value=0, max_value=10**30),
    st.sampled_from([0, 1, 710, 1e308, 1.7e308, 10**30]),
)


def _object(keys):
    return st.fixed_dictionaries({}, optional={key: _number for key in keys})


_documents = st.fixed_dictionaries(
    {"id": st.just("drawn"), "kind": st.sampled_from([kind.value for kind in ScenarioKind])},
    optional={
        "hazard_multipliers": _object([h.value for h in HAZARD_TYPES]),
        # gen.py's named sectors come first; sector0007 is one no built-in names.
        "transition": _object(["default", "agriculture", "retail", "sector0007"]),
        "financing_tightening": _number,
        "lambda": _number,
        "lgd_gamma": _number,
        "repricing": _object(["delta_hazard", "delta_transition", "delta_financing"]),
        "betas": _object(["hazard", "transition", "fragility", "adaptation"]),
    },
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("documents")
    paths = gen.generate(str(directory), 1, 200, 20, 8)["paths"]
    return str(directory), [flag for name in INPUTS for flag in (f"--{name}", paths[name])]


def _main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=_documents)
def test_no_scenario_document_ends_a_run_in_exit_3(inputs, document):
    directory, flags = inputs
    scenario = os.path.join(directory, "scenario.json")
    with open(scenario, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    code, err = _main(["validate", *flags, "--scenario", scenario])
    assert code in (0, 2), err
    for format in ("json", "csv"):
        out = os.path.join(directory, f"report.{format}")
        if os.path.exists(out):
            os.unlink(out)
        code, err = _main(["run", *flags, "--scenario", scenario, "--format", format,
                           "--out", out])
        assert code in (0, 2), err
        if code == 0:
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            assert not re.search("NaN|Infinity|inf|nan", text), document
        else:
            assert err.startswith("error: ") and err.count("\n") == 1 and not os.path.exists(out)
