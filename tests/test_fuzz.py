"""Property tests: no model or drive document makes the parser or ``check`` crash.

Generated builtin and explicit documents, well-formed or not, must either
parse or raise a package error.  ``check`` runs on documents and tolerances
that are malformed only rarely, so that most of its inputs reach the checks,
and must end in a documented exit code with every failure reported on an
``error:`` line.
Generated drive documents must either parse or raise a package error.
Sizes are capped (dim <= 4, channels <= 2, n_trunc <= 4) so nothing large
is allocated.
"""

import contextlib
import io
import itertools
import json
import math
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qsde_elim import QsdeElimError  # noqa: E402
from qsde_elim.cli import _parse_drive, main, parse_model_document  # noqa: E402

# derandomized: the same examples on every run, so the suite stays deterministic
FUZZ = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

reals = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-300, 1e300]),
    st.integers(min_value=-3, max_value=3),
)
scalars = st.one_of(reals, st.lists(reals, min_size=2, max_size=2))
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just({}))


def matrices(dim: int):
    """Row-major [re, im] pair lists; now and then of the wrong length."""
    pair = st.lists(reals, min_size=2, max_size=2)
    size = st.one_of(st.just(dim * dim), st.integers(min_value=0, max_value=5))
    return size.flatmap(lambda n: st.lists(pair, min_size=n, max_size=n))


BUILTIN_KEYS = {
    "two_level": ["delta", "gamma", "alpha"],
    "alkali": ["delta", "gamma", "bx", "by", "bz"],
    "cavity_system": ["gamma", "n_trunc"],
    "lambda_system": ["gamma", "g", "alpha", "n_trunc"],
}


@st.composite
def builtin_documents(draw):
    name = draw(st.sampled_from(sorted(BUILTIN_KEYS) + ["bogus"]))
    keys = BUILTIN_KEYS.get(name, ["delta"])
    params = {}
    for key in keys:
        if draw(st.integers(0, 9)) == 0:
            continue  # a missing parameter
        if key == "n_trunc":
            params[key] = draw(st.one_of(st.integers(-1, 4), junk))
        else:
            params[key] = draw(st.one_of(scalars, junk) if draw(st.booleans()) else scalars)
    if name == "cavity_system" and draw(st.booleans()):
        dim_h = draw(st.integers(0, 2))
        params["dim_h"] = dim_h
        for block in ("e00", "e10", "e11"):
            params[block] = draw(matrices(dim_h))
    if draw(st.integers(0, 9)) == 0:
        params["extra"] = 1.0
    return {"schema_version": 1, "builtin": {"name": name, "parameters": params}}


@st.composite
def explicit_documents(draw):
    dim = draw(st.integers(0, 4))
    n = draw(st.integers(0, 2))
    spec = {"dim": dim, "channels": n}
    for key in ("Y", "A", "B"):
        spec[key] = draw(matrices(dim))
    for key in ("F", "G"):
        spec[key] = [draw(matrices(dim)) for _ in range(n)]
    spec["W"] = [[draw(matrices(dim)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        spec["y1inv_override"] = draw(matrices(dim))
    if draw(st.integers(0, 9)) == 0:
        del spec[draw(st.sampled_from(sorted(spec)))]
    return {"schema_version": 1, "explicit": spec}


documents = st.one_of(builtin_documents(), explicit_documents())


@FUZZ
@given(documents)
def test_parse_model_document_raises_only_package_errors(doc):
    try:
        parse_model_document(doc)
    except QsdeElimError:
        pass


def rarely(draw) -> bool:
    return draw(st.integers(0, 9)) == 9


finite = st.one_of(st.floats(min_value=-3.0, max_value=3.0), st.sampled_from([0.0, 1.0, -1.0]))


def pair_lists(size: int):
    return st.lists(st.lists(finite, min_size=2, max_size=2), min_size=size, max_size=size)


@st.composite
def check_documents(draw):
    """Model documents for ``check``: rarely any of ``documents``, else one that parses."""
    if rarely(draw):
        return draw(documents)
    if draw(st.booleans()):
        dim, n = draw(st.integers(1, 4)), draw(st.integers(1, 2))
        spec = {"dim": dim, "channels": n, **{key: draw(pair_lists(dim * dim)) for key in "YAB"}}
        for key in ("F", "G"):
            spec[key] = [draw(pair_lists(dim * dim)) for _ in range(n)]
        spec["W"] = [[draw(pair_lists(dim * dim)) for _ in range(n)] for _ in range(n)]
        return {"schema_version": 1, "explicit": spec}
    name = draw(st.sampled_from(sorted(BUILTIN_KEYS)))
    readers = {"n_trunc": st.integers(2, 4), "gamma": st.floats(0.0, 3.0), "alpha": pair_lists(1)}
    params = {key: draw(readers.get(key, finite)) for key in BUILTIN_KEYS[name]}
    if "alpha" in params:
        params["alpha"] = params["alpha"][0]
    return {"schema_version": 1, "builtin": {"name": name, "parameters": params}}


@st.composite
def check_tolerances(draw):
    """--tol for ``check``: rarely an invalid one."""
    return draw(st.sampled_from(["nan", "-1"] if rarely(draw) else [None, "1e-9", "1e-3"]))


@FUZZ
@given(check_documents(), check_tolerances())
def test_check_exits_with_a_documented_code(doc, tol):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = ["check", "--model", path] + ([] if tol is None else ["--tol", tol])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1 or code == 3:
        # RuntimeWarnings are errors in this suite, so no numpy warning gets
        # this far; the last line names the error
        assert err.getvalue().splitlines()[-1].startswith("error: ")
    else:
        report = json.loads(out.getvalue())
        assert report["passed"] is (code == 0)
        for section in report["sections"]:
            if section["passed"]:  # a pass is never vacuous
                assert math.isfinite(section["tolerance"])
                assert all(math.isfinite(r["residual"]) for r in section["residuals"])


@st.composite
def drive_documents(draw):
    """Step drives, mostly of breakpoints rising from 0 and rows of one width."""
    segments = draw(st.integers(1, 3)) if not rarely(draw) else 0
    if not rarely(draw):
        durations = st.one_of(st.floats(0.125, 1.0), st.sampled_from([0.5, 0.0, math.inf]))
        steps = draw(st.lists(durations, min_size=segments, max_size=segments))
        breakpoints = list(itertools.accumulate(steps, initial=0.0))
    else:
        breakpoints = draw(st.one_of(st.lists(reals, max_size=4), junk))
    width = draw(st.integers(1, 2))

    def row():
        ragged = draw(st.integers(0, 3)) == 3
        n = draw(st.integers(0, 3)) if ragged else width
        return [draw(junk) if rarely(draw) else draw(scalars) for _ in range(n)]

    amplitudes = [draw(junk) if rarely(draw) else row() for _ in range(segments)]
    doc = {"breakpoints": breakpoints, "amplitudes": amplitudes}
    if rarely(draw):
        doc["amplitudes"] = draw(junk)
    if rarely(draw):
        del doc[draw(st.sampled_from(sorted(doc)))]
    if rarely(draw):
        doc["phase"] = 1.0
    return doc


@FUZZ
@given(drive_documents())
@example({"breakpoints": [0.0, 0.25, 0.5], "amplitudes": [[0.3], [0.1, 0.2]]})
@example({"breakpoints": [0.0, math.inf, math.inf], "amplitudes": [[0.3], [0.1]]})
def test_parse_drive_raises_only_package_errors(doc):
    try:
        _parse_drive(doc)
    except QsdeElimError:
        pass
