"""The identity suites: thm1 and prop1 reports equal to the lazy path they
replaced, one evaluation of the source per suite (thm3 and thm4 too),
pinned report bytes, and the same reports and errors when their grids are
split into row blocks on parallel threads."""
import dataclasses
import hashlib
import inspect
import json
import threading
import time
from collections import Counter, defaultdict

import numpy as np
import pytest
from conftest import counting

from frontalforge import verify
from frontalforge.catalog import catalog, catalog_names
from frontalforge.cli import main
from frontalforge.errors import (GaussDegenerateError, NonFiniteSampleError,
                                 NoPointTestedError, PoleOnSilhouetteError,
                                 UsageError)
from frontalforge.frontal import ParamDomain, tangency_residuals
from frontalforge.transforms import anti_orthotomic, orthotomic, sample_poles

SAMPLES = 256


def _norm(a):
    return np.linalg.norm(a, axis=1)


def _lazy_prop1(F, samples):
    """suite_prop1 as it was: a fresh order-1 evaluation of the orthotomic,
    and so of F, per pole."""
    grid = verify.grid_for(F, samples, interior_margin=1e-3)
    poles = sample_poles(F, grid, 5)
    worst_identity = worst_frontal = 0.0
    min_separation = np.inf
    for P in poles:
        ft, nt = F.eval(grid)
        G = orthotomic(F, P).result
        jet = G.eval(grid, 1)
        fv, nv = jet[:2]
        worst_frontal = max(worst_frontal,
                            tangency_residuals(jet[2], jet[1]).max())
        d_tilde = np.einsum("km,km->k", ft - P, nt)
        lhs = _norm(fv - ft) * np.einsum("km,km->k", fv - P, nv)
        worst_identity = max(worst_identity,
                             float(np.max(np.abs(lhs - 2.0 * d_tilde**2))))
        sep = _norm(fv - ft)
        min_separation = min(min_separation,
                             float(np.min(sep[np.abs(d_tilde) > 1e-3])))
    return {
        "suite": "prop1", "frontal": F.name, "poles": poles.tolist(),
        "max_identity_residual": worst_identity,
        "max_frontal_residual": worst_frontal,
        "min_separation": min_separation, "tol": verify.PROP1_TOL,
        "passed": (worst_identity <= verify.PROP1_TOL
                   and min_separation > 1e-3
                   and worst_frontal <= verify.FRONTAL_TOL),
    }


def _lazy_thm1(F, samples):
    """suite_thm1 as it was: every transform evaluated through its lazy
    result, the round trips composed as frontals, F evaluated per pole."""
    grid = verify.grid_for(F, samples, interior_margin=1e-3)
    poles = sample_poles(F, grid, 5)
    worst = {"frontal": 0.0, "support": 0.0, "equidistance": 0.0,
             "roundtrip": 0.0}
    for P in poles:
        fv = F.eval(grid)[0]
        anti = anti_orthotomic(F, P).result
        jet = anti.eval(grid, 1)
        ftv, ntv = jet[:2]
        worst["frontal"] = max(worst["frontal"],
                               tangency_residuals(jet[2], jet[1]).max())
        supp = np.einsum("km,km->k", ftv - P, ntv)
        worst["support"] = max(worst["support"], float(np.max(
            np.abs(supp - _norm(fv - P) / 2.0))))
        worst["equidistance"] = max(worst["equidistance"], float(np.max(
            np.abs(_norm(ftv - P) - _norm(ftv - fv)))))
        back1 = orthotomic(anti, P).result
        back2 = anti_orthotomic(orthotomic(F, P).result, P).result
        for back in (back1, back2):
            worst["roundtrip"] = max(worst["roundtrip"], float(np.max(
                _norm(back.eval(grid)[0] - fv))))
    tols = {"frontal": 1e-6, "support": 1e-8, "equidistance": 1e-9,
            "roundtrip": 1e-8}
    return {
        "suite": "thm1", "frontal": F.name, "poles": poles.tolist(),
        "max_residuals": worst, "tols": tols,
        "passed": all(worst[k] <= tols[k] for k in worst),
    }


LAZY = {"thm1": _lazy_thm1, "prop1": _lazy_prop1}

# each residual of a suite's report, by its index in the _*_rows values
_ROW_KEYS = {"thm1": ("frontal", "support", "equidistance", "roundtrip"),
             "prop1": ("max_frontal_residual", "max_identity_residual",
                       "min_separation")}


@pytest.mark.parametrize("suite", list(LAZY))
@pytest.mark.parametrize("name", catalog_names())
def test_report_equals_lazy_oracle(name, suite):
    F = catalog(name)
    got = verify.run_suite(suite, F, samples=SAMPLES)
    assert got == LAZY[suite](F, SAMPLES)


def test_default_samples_is_the_one_table(monkeypatch):
    """No suite has a sample count of its own: run_suite, given none, runs
    each at DEFAULT_SAMPLES[name], and the reports that count their points
    count that many."""
    seen = {}
    for name in verify.SUITES:
        key = "suite_" + name.replace("-", "_")
        suite = getattr(verify, key)
        samples = inspect.signature(suite).parameters["samples"]
        assert samples.default is inspect.Parameter.empty, key

        def spy(*args, _suite=suite, _name=name, **kw):
            seen[_name] = kw["samples"]
            return _suite(*args, **kw)
        monkeypatch.setattr(verify, key, spy)
    F = catalog("circle")  # 1-parameter: grid_for(F, n) has n points
    reps = {name: verify.run_suite(
        name, catalog("square") if name == "square-reconstruction" else F)
        for name in verify.SUITES}
    want = verify.DEFAULT_SAMPLES
    assert seen == want
    assert reps["frontal-condition"]["samples"] == want["frontal-condition"]
    for name, poles in (("thm2", 1), ("thm3", verify.N_POLES)):
        rep = reps[name]
        counted = rep["points_tested"] + sum(rep["points_skipped"].values())
        assert counted == poles * want[name], name


# (frontal, suite, poles): each pole suite with its poles left to it,
# sampled rows and a count; a one-pole suite takes one of each
EVALUATION_CASES = (
    [(name, suite, poles) for name in catalog_names()
     for suite in [*LAZY, "thm3", "thm4"] for poles in (None, "sampled", 3)]
    + [(name, "thm2", poles) for name in catalog_names()
       for poles in (None, "sampled", 1)]
    + [("square", "square-reconstruction", poles)
       for poles in (None, "sampled", 1)])


@pytest.mark.parametrize("name, suite, poles", EVALUATION_CASES)
def test_one_order_one_evaluation_per_suite(name, suite, poles, monkeypatch):
    """Each evaluator of F a suite uses runs on the grid once, whatever the
    pole count and whether the poles are given, counted or left to the
    suite: the sampler, every transform and analysis call, and thm1's
    round trips read that one order-1 jet; square-reconstruction reads one
    order-0 evaluation of the square."""
    rows = defaultdict(list)
    F = counting(catalog(name), rows)
    monkeypatch.setattr(verify, "catalog", lambda _: F)  # the square
    grid = verify.grid_for(F, SAMPLES, interior_margin=1e-3)
    count = 1 if suite in verify.ONE_POLE else 3
    if poles == "sampled":
        poles = sample_poles(catalog(name), grid, count)
    rows.clear()
    try:
        rep = verify.run_suite(suite, F, poles=poles, samples=SAMPLES)
    except NoPointTestedError:  # every Gauss-map point is singular
        assert (name, suite) == ("constant", "thm2")
    else:
        if suite not in verify.ONE_POLE:
            assert len(rep["poles"]) == (5 if poles is None else 3)
    k = [grid.shape[0]]
    keys = ("f", "nu") if suite == "square-reconstruction" else (
        "f", "nu", "jac_f", "jac_nu")
    assert rows == {key: k for key in keys}


@pytest.mark.parametrize("suite", ["thm1", "prop1", "thm3", "thm4"])
@pytest.mark.parametrize("name", catalog_names())
def test_pole_count_draws_the_first_default_poles(name, suite):
    """poles=k samples the first k of the N_POLES poles drawn without
    poles: one sampler, whose generator accepts candidates in order."""
    F = catalog(name)
    default = verify.run_suite(suite, F, samples=SAMPLES)["poles"]
    for k in (1, 2, verify.N_POLES):
        rep = verify.run_suite(suite, F, poles=k, samples=SAMPLES)
        assert rep["poles"] == default[:k]


@pytest.mark.parametrize("name, poles, match", [
    ("thm2", 2, "suite thm2 takes one pole"),
    ("thm2", [[0.1, 0.2], [0.3, 0.1]], "suite thm2 takes one pole"),
    ("square-reconstruction", 2, "suite square-reconstruction takes one"),
    ("frontal-condition", 1, "suite frontal-condition takes no pole"),
    ("frontal-condition", [[5, 5]], "suite frontal-condition takes no")])
def test_pole_rules_fail_before_any_pole_is_drawn(name, poles, match,
                                                  monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a pole was drawn")

    monkeypatch.setattr(verify, "sample_poles", no_sampling)
    F = catalog("square" if name == "square-reconstruction" else "circle")
    with pytest.raises(UsageError, match=match):
        verify.run_suite(name, F, poles=poles, samples=32)


@pytest.mark.parametrize("name", ["thm2", "square-reconstruction"])
def test_one_pole_suite_draws_the_first_sampled_pole(name, monkeypatch):
    """A one-pole suite given the count 1, and thm2 given no pole, draws
    its pole from the pole suites' grid, as thm1 draws its first: thm2 on
    every catalog frontal, square-reconstruction on the square.  thm2 on
    the constant, whose every Gauss-map point is singular, draws it too,
    then raises NoPointTestedError."""
    drawn = []

    def spy(*args, **kw):
        drawn.append(sample_poles(*args, **kw))
        return drawn[-1]

    monkeypatch.setattr(verify, "sample_poles", spy)
    for frontal in catalog_names() if name == "thm2" else ["square"]:
        F = catalog(frontal)
        want = verify.run_suite("thm1", F, samples=SAMPLES)["poles"][0]
        for poles in (1, None) if name == "thm2" else (1,):
            if frontal == "constant":
                with pytest.raises(NoPointTestedError):
                    verify.run_suite(name, F, poles=poles, samples=SAMPLES)
            else:
                rep = verify.run_suite(name, F, poles=poles, samples=SAMPLES)
                assert rep["pole"] == want, frontal
            assert drawn[-1][0].tolist() == want, frontal


# sha256 of `frontalforge verify --suite S --catalog C --samples 4096
# --json`, recorded before the suites read one jet and row norms were
# summed by columns.
REPORT_SHA256 = {
    ("thm1", "circle"):
        "42dad25ca67262afbd6eb57f1fd2ac69fdd91151d3bd0a45635b31347109ae9c",
    ("thm1", "circle-cubic"):
        "2922de7924d96271bd3ab783df25dbc84c6d8f783faba83c7c618df3a06be6f3",
    ("thm1", "constant"):
        "ebb12569143dcb1a18110184db412825b43fbcdf3aa0f1eef8495958069af8b3",
    ("thm1", "cusp"):
        "f44da71056765d8af802d62292faa571a875600706d64f30a42e983262963bd9",
    ("thm1", "nonfront"):
        "ece7dfc2f802227935f6e358514b316f57bc4e26f8f15878b3992133ea77f2fe",
    ("thm1", "sphere"):
        "25023a15d8913aee4443bdc7c1f233f11f50992d7a10665c32f4e74599d17994",
    ("thm1", "square"):
        "534ee72c7eb0176c1aba5cfbef89e5fd9034355421294940ccadc7999c208bfd",
    ("prop1", "circle"):
        "3bc15596220714be6fec2da40a64aae70c97a1cbc90b309007e64b30ab894347",
    ("prop1", "circle-cubic"):
        "8b3536abc5521156b31a9cae7217931b823d6dc2deb26a8a5092a3f270255eec",
    ("prop1", "constant"):
        "d6f7b6c154493e16464b7ac9d7bf683d5d6550b959c4a0ce82600338477a43fc",
    ("prop1", "cusp"):
        "a0ef84cedebfec00b124b6e16883633b4fb134b2ded63ccf15f667a5aacb8e40",
    ("prop1", "nonfront"):
        "b632c8905747b48bb1cab1ce7e22c65d29f029480060823e324394f349110a69",
    ("prop1", "sphere"):
        "3274bad3596a9cc9fd6ad1199dfdc1e192b5ad3fd61300c8bd66e6ae30729d01",
    ("prop1", "square"):
        "b7f58eea91c9c452c47ad488e07fc74698715ae4d648cb976bc7ad10442d5676",
}


@pytest.mark.parametrize("suite,name", list(REPORT_SHA256),
                         ids=lambda v: v)
def test_suite_report_bytes_pinned(suite, name, tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", suite, "--catalog", name,
                 "--samples", "4096", "--json", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == REPORT_SHA256[suite, name]


def test_square_reconstruction_needs_a_sample_per_segment():
    with pytest.raises(ValueError, match="at least 8 samples"):
        verify.suite_square_reconstruction(catalog("square"), 7,
                                           [verify.SQUARE_POLE])
    assert verify.suite_square_reconstruction(catalog("square"), 8,
                                              [verify.SQUARE_POLE])["passed"]


# -- thm1 and prop1 on row blocks in parallel threads -----------------------

def _split(monkeypatch, cores):
    """Split every thm1/prop1 grid of k rows into min(cores, k) blocks,
    whatever this machine has; returns the block counts seen."""
    seen = []
    row_blocks = verify._row_blocks

    def spy(k):
        blocks = row_blocks(k)
        seen.append(len(blocks))
        return blocks
    monkeypatch.setattr(verify, "MIN_BLOCK_ROWS", 1)
    monkeypatch.setattr(verify, "_usable_cores", lambda: cores)
    monkeypatch.setattr(verify, "_row_blocks", spy)
    return seen


def _report_text(suite, F, samples, poles=None):
    return json.dumps(verify.run_suite(suite, F, poles=poles, samples=samples),
                      sort_keys=True)


def test_row_blocks_cover_the_rows_in_order(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cores", lambda: 3)
    k = 3 * verify.MIN_BLOCK_ROWS - 1
    assert verify._row_blocks(k) == [slice(0, k // 2), slice(k // 2, k)]
    assert len(verify._row_blocks(k + 1)) == 3
    k = verify.MIN_BLOCK_ROWS - 1
    assert verify._row_blocks(k) == [slice(0, k)]
    monkeypatch.setattr(verify, "MIN_BLOCK_ROWS", 1)
    monkeypatch.setattr(verify, "_usable_cores", lambda: 8)
    assert verify._row_blocks(5) == [slice(i, i + 1) for i in range(5)]


# (samples, cores): an odd row count in 2 and 3 blocks, and fewer rows than
# cores, so each block is one row
SPLITS = [(255, 2), (225, 3), (5, 8)]


@pytest.mark.parametrize("samples,cores", SPLITS, ids=str)
@pytest.mark.parametrize("suite", list(LAZY))
@pytest.mark.parametrize("name", catalog_names())
def test_split_report_equals_one_block(name, suite, samples, cores,
                                       monkeypatch):
    F = catalog(name)
    want = _report_text(suite, F, samples)
    seen = _split(monkeypatch, cores)
    assert _report_text(suite, F, samples) == want
    k = verify.grid_for(F, samples, interior_margin=1e-3).shape[0]
    assert seen == [min(cores, k)] * verify.N_POLES


def test_split_with_blocks_outside_the_separation_margin(monkeypatch):
    """A pole 5e-4 inside the square's side x = 1: |(f-P).nu| = 5e-4 on that
    side's segment, t in [1, 2), which is block 1 of 8, so that block has
    no row for prop1's separation check; the others do."""
    F = catalog("square")
    P = [[1.0 - 5e-4, 0.0]]
    want = _report_text("prop1", F, 4096, poles=P)
    seen = _split(monkeypatch, 8)
    kept = []
    prop1_rows = verify._prop1_rows

    def spy(*args):
        out = prop1_rows(*args)
        kept.append(bool(out[3]))
        return out
    monkeypatch.setattr(verify, "_prop1_rows", spy)
    assert _report_text("prop1", F, 4096, poles=P) == want
    assert seen == [8]
    assert sorted(kept) == [False] + [True] * 7


def _nan_row_circle():
    """The circle with the f of its last grid row set to NaN."""
    def f(x):
        out = catalog("circle").f(x)
        out[-1] = np.nan
        return out
    return dataclasses.replace(catalog("circle"), f=f)


def test_thm3_reports_a_nan_row():
    """A NaN residual is no degenerate nu2: thm3 tests its row, and the NaN
    reaches max_scaled_residual and fails the report."""
    with np.errstate(invalid="ignore"):
        rep = verify.run_suite("thm3", _nan_row_circle(), poles=[[0.1, 0.2]],
                               samples=255)
    assert rep["points_tested"] == 255
    assert rep["points_skipped"] == {"degenerate_nu2": 0}
    assert np.isnan(rep["max_scaled_residual"])
    assert rep["passed"] is False


def test_thm3_skips_a_pole_on_the_image():
    """The one row where f = P has nu2 undefined: skipped and counted."""
    F = catalog("circle")
    grid = F.domain.wrap(verify.grid_for(F, 255, interior_margin=1e-3))
    rep = verify.run_suite("thm3", F, poles=F.f(grid[100:101]), samples=255)
    assert rep["points_skipped"] == {"degenerate_nu2": 1}
    assert rep["points_tested"] == 254
    assert rep["passed"] is True


def test_thm4_rejects_a_nan_row():
    """A NaN row makes the stacked Jacobians non-finite: front_equivalence
    raises NonFiniteSampleError before an SVD that would not converge."""
    with pytest.raises(NonFiniteSampleError, match="non-finite sample at x="), \
            np.errstate(invalid="ignore"):
        verify.run_suite("thm4", _nan_row_circle(), poles=[[0.1, 0.2]],
                         samples=255)


@pytest.mark.parametrize("suite", list(LAZY))
def test_split_keeps_a_nan_of_any_block(suite, monkeypatch):
    """A NaN in the last row's f makes the maxima of the pole's last block
    NaN.  Split or not, the report has that NaN and fails: every block
    maximum of every pole meets in one np.max, where Python's max from a
    finite value would drop it."""
    F = _nan_row_circle()
    P = [[0.1, 0.2]]
    with np.errstate(invalid="ignore"):
        want = _report_text(suite, F, 255, poles=P)
        seen = _split(monkeypatch, 2)
        assert _report_text(suite, F, 255, poles=P) == want
    assert seen == [2]
    rep = json.loads(want)
    assert rep["passed"] is False
    values = rep["max_residuals"] if suite == "thm1" else rep
    # the NaN row has no separation margin, so min_separation stays finite
    keys = [key for key in _ROW_KEYS[suite] if key != "min_separation"]
    assert np.isnan([values[key] for key in keys]).all()


@pytest.mark.parametrize("suite,name", list(REPORT_SHA256),
                         ids=lambda v: v)
def test_suite_report_bytes_pinned_under_split(suite, name, tmp_path,
                                               monkeypatch):
    """The report pins hold with each grid in 3 blocks on 3 threads."""
    seen = _split(monkeypatch, 3)
    monkeypatch.setattr(verify, "MIN_BLOCK_ROWS", 1024)
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", suite, "--catalog", name,
                 "--samples", "4096", "--json", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == REPORT_SHA256[suite, name]
    assert seen == [3] * verify.N_POLES


def test_block_error_waits_for_every_block(monkeypatch):
    """When block 0 raises, the one-block run starts only after the helper's
    block has ended."""
    events = []

    def fn(x):
        if len(x) == 4:
            events.append("one block")
            raise ValueError("one block")
        if x[0] == 0:
            events.append("block 0 raised")
            raise ValueError("block 0")
        time.sleep(0.05)
        events.append("block 1 ended")

    _split(monkeypatch, 2)
    with pytest.raises(ValueError, match="one block"):
        verify._in_blocks(fn, (np.arange(4),))
    assert events == ["block 0 raised", "block 1 ended", "one block"]


# circle poles on the silhouette: at t = pi only (row 600 of 1200, in a
# helper's block), and at t = pi/3 and 5pi/3 (rows 200 and 1000, in the
# first and the last block)
@pytest.mark.parametrize("pole", [(-1.0, 0.0), (2.0, 0.0)], ids=str)
@pytest.mark.parametrize("suite,error", [("thm1", PoleOnSilhouetteError),
                                         ("prop1", GaussDegenerateError)])
def test_split_raises_the_one_block_error(suite, error, pole, monkeypatch):
    F = catalog("circle")

    def raised():
        with pytest.raises(error) as info:
            verify.run_suite(suite, F, poles=[pole], samples=1200)
        return info.value

    want = raised()
    seen = _split(monkeypatch, 3)
    got = raised()
    assert seen == [3]
    assert type(got) is type(want)
    np.testing.assert_array_equal(got.x, want.x)
    assert got.value == want.value


@pytest.mark.parametrize("suite", list(LAZY))
def test_split_calls_traced_code_on_main_thread_only(suite, monkeypatch):
    """perfbench/tracer.py keeps one span stack: the transform builders,
    ParamDomain.wrap, the catalog evaluators and the pole sampler run on
    the main thread; the per-row checks run on helper threads too."""
    threads = Counter()

    def spied(key, fun):
        def call(*args, **kw):
            is_main = threading.current_thread() is threading.main_thread()
            threads[key, is_main] += 1
            return fun(*args, **kw)
        return call

    for key in ("orthotomic", "anti_orthotomic", "sample_poles",
                "_thm1_rows", "_prop1_rows"):
        monkeypatch.setattr(verify, key, spied(key, getattr(verify, key)))
    monkeypatch.setattr(ParamDomain, "wrap", spied("wrap", ParamDomain.wrap))
    F = catalog("circle")
    F = dataclasses.replace(F, **{key: spied(key, getattr(F, key))
                                  for key in ("f", "nu", "jac_f", "jac_nu")})
    seen = _split(monkeypatch, 2)
    verify.run_suite(suite, F, samples=1024)
    assert seen == [2] * verify.N_POLES
    rows = f"_{suite}_rows"
    assert threads[rows, True] == threads[rows, False] == verify.N_POLES
    off_main = {key for key, is_main in threads if not is_main}
    assert off_main == {rows}
    assert {key for key, _ in threads} >= {
        "orthotomic", "sample_poles", "wrap", "f", "nu", "jac_f", "jac_nu"}


# -- every pole and block in one reduction ---------------------------------

@pytest.mark.parametrize("suite,index,key",
                         [(suite, i, key) for suite, keys in _ROW_KEYS.items()
                          for i, key in enumerate(keys)])
def test_nan_of_a_middle_pole_fails_the_report(suite, index, key, tmp_path,
                                               monkeypatch):
    """A NaN in one value of the 2nd of 3 poles reaches the report as NaN,
    and verify exits 1."""
    rows = getattr(verify, f"_{suite}_rows")
    calls = []

    def spy(*args):
        out = list(rows(*args))
        calls.append(out)
        if len(calls) == 2:
            out[index] = np.nan
        return tuple(out)
    monkeypatch.setattr(verify, f"_{suite}_rows", spy)
    out = tmp_path / "r.json"
    code = main(["verify", "--suite", suite, "--catalog", "circle",
                 "--poles", "auto:3", "--samples", "256", "--json", str(out)])
    rep = json.loads(out.read_text())
    assert len(calls) == len(rep["poles"]) == 3
    assert code == 1 and rep["passed"] is False
    values = rep["max_residuals"] if suite == "thm1" else rep
    assert np.isnan(values[key])
    assert not any(np.isnan(v) for k, v in values.items()
                   if k != key and isinstance(v, float))


def test_thm1_builds_two_transforms_per_pole(monkeypatch):
    built = Counter()

    def spied(key, fun):
        def call(*args):
            built[key] += 1
            return fun(*args)
        return call

    for key in ("orthotomic", "anti_orthotomic"):
        monkeypatch.setattr(verify, key, spied(key, getattr(verify, key)))
    rep = verify.run_suite("thm1", catalog("circle"), samples=SAMPLES)
    n = len(rep["poles"])
    assert n == verify.N_POLES
    assert built == {"orthotomic": n, "anti_orthotomic": n}
