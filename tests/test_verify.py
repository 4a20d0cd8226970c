"""The identity suites: thm1 and prop1 reports equal to the lazy path they
replaced, one evaluation of the source per suite (thm3 and thm4 too), and
pinned report bytes."""
import dataclasses
import hashlib
import inspect
from collections import Counter

import numpy as np
import pytest

from frontalforge import verify
from frontalforge.catalog import catalog, catalog_names
from frontalforge.cli import main
from frontalforge.frontal import check_frontal
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
                            check_frontal(G, grid, jet=jet).max_residual)
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
                               check_frontal(anti, grid, jet=jet).max_residual)
        supp = np.einsum("km,km->k", ftv - P, ntv)
        worst["support"] = max(worst["support"], float(np.max(
            np.abs(supp - _norm(fv - P) / 2.0))))
        worst["equidistance"] = max(worst["equidistance"], float(np.max(
            np.abs(_norm(ftv - P) - _norm(ftv - fv)))))
        back1 = orthotomic(anti, P).result
        back2 = anti_orthotomic(orthotomic(F, P).result, P).result
        for back in (back1, back2):
            worst["roundtrip"] = max(worst["roundtrip"], float(np.max(
                _norm(back.eval_f(grid) - fv))))
    tols = {"frontal": 1e-6, "support": 1e-8, "equidistance": 1e-9,
            "roundtrip": 1e-8}
    return {
        "suite": "thm1", "frontal": F.name, "poles": poles.tolist(),
        "max_residuals": worst, "tols": tols,
        "passed": all(worst[k] <= tols[k] for k in worst),
    }


LAZY = {"thm1": _lazy_thm1, "prop1": _lazy_prop1}


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
    reps = {name: verify.run_suite(name, F) for name in verify.SUITES}
    want = verify.DEFAULT_SAMPLES
    assert seen == want
    assert reps["frontal-condition"]["samples"] == want["frontal-condition"]
    for name, poles in (("thm2", 1), ("thm3", verify.N_POLES)):
        rep = reps[name]
        counted = rep["points_tested"] + sum(rep["points_skipped"].values())
        assert counted == poles * want[name], name


def _counting(F, calls):
    """F whose evaluators count the rows they are called on, by name."""
    def counted(key, fun):
        def call(x):
            calls[key] += x.shape[0]
            return fun(x)
        return call

    return dataclasses.replace(F, **{key: counted(key, getattr(F, key))
                                     for key in ("f", "nu", "jac_f",
                                                 "jac_nu")})


@pytest.mark.parametrize("poles", [None, "sampled"])
@pytest.mark.parametrize("suite", [*LAZY, "thm3", "thm4"])
@pytest.mark.parametrize("name", catalog_names())
def test_one_order_one_evaluation_per_suite(name, suite, poles):
    """Each evaluator of F runs on the grid once, whatever the pole count:
    the sampler, every transform and analysis call, and thm1's round trips
    read that one jet."""
    calls = Counter()
    F = _counting(catalog(name), calls)
    grid = verify.grid_for(F, SAMPLES, interior_margin=1e-3)
    if poles:
        poles = sample_poles(catalog(name), grid, 3)
    calls.clear()
    rep = verify.run_suite(suite, F, poles=poles, samples=SAMPLES)
    assert len(rep["poles"]) == (5 if poles is None else 3)
    k = grid.shape[0]
    assert calls == {"f": k, "nu": k, "jac_f": k, "jac_nu": k}


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
        verify.suite_square_reconstruction(verify.SQUARE_POLE, 7)
    assert verify.suite_square_reconstruction(verify.SQUARE_POLE, 8)["passed"]
