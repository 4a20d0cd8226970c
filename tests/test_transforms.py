import dataclasses
import hashlib
from collections import defaultdict

import numpy as np
import pytest
from conftest import counting
from hypothesis import given, settings
from hypothesis import strategies as st

from frontalforge import transforms
from frontalforge._kernels import support_values
from frontalforge.catalog import catalog, catalog_names
from frontalforge.cli import main
from frontalforge.errors import (EmptyNSSetError, GaussDegenerateError,
                                PoleOnSilhouetteError)
from frontalforge.frontal import (Frontal, ParamDomain, _fd_jacobian,
                                  check_frontal, interval)
from frontalforge.linalg import _length
from frontalforge.silhouette import ns_membership
from frontalforge.transforms import (TransformKind, anti_orthotomic,
                                     negative_pedal, orthotomic, pedal,
                                     sample_poles, transform)
from frontalforge.verify import GRID_INSET, N_POLES, grid_for


def _grid(F, n=256):
    return F.domain.grid([max(2, int(round(n ** (1.0 / F.param_dim))))]
                         * F.param_dim)


def _line_frontal():
    """f~(t) = (t, 0) with nu~ = (0, 1): the x-axis."""
    def f(x):
        return np.stack([x[:, 0], np.zeros(x.shape[0])], axis=-1)

    def nu(x):
        return np.stack([np.zeros(x.shape[0]), np.ones(x.shape[0])], axis=-1)

    return Frontal(domain=interval(-2.0, 2.0), f=f, nu=nu, ambient_dim=2)


class TestOrthotomic:
    def test_circle_about_center_doubles_radius(self):
        F = catalog("circle")
        res = orthotomic(F, [0.0, 0.0]).result
        g = _grid(F)
        np.testing.assert_allclose(np.linalg.norm(res.eval(g)[0], axis=1),
                                   2.0, atol=1e-12)

    def test_line_collapses_to_mirror_point(self):
        F = _line_frontal()
        res = orthotomic(F, [0.0, 1.0]).result
        fv = res.eval(_grid(F, 64))[0]
        np.testing.assert_allclose(fv, np.tile([0.0, -1.0], (fv.shape[0], 1)),
                                   atol=1e-12)

    def test_square_edge_maps_to_mirror_point(self):
        F = catalog("square")
        res = orthotomic(F, [0.3, -0.2]).result
        t = (1.0 + np.linspace(0.0, 1.0, 65))[:, None]  # edge x = 1
        fv = res.eval(t)[0]
        np.testing.assert_allclose(fv, np.tile([1.7, -0.2], (65, 1)),
                                   atol=1e-9)


class TestPedal:
    def test_circle_about_center_is_identity(self):
        F = catalog("circle")
        res = pedal(F, [0.0, 0.0]).result
        g = _grid(F)
        np.testing.assert_allclose(res.eval(g)[0], F.eval(g)[0], atol=1e-12)

    @pytest.mark.parametrize("name", ["circle", "cusp", "square"])
    def test_linkage_with_orthotomic(self, name):
        F = catalog(name)
        P = np.array([0.3, -0.2])
        g = _grid(F)
        ped = pedal(F, P).result.eval(g)[0]
        ort = orthotomic(F, P).result.eval(g)[0]
        np.testing.assert_allclose(2.0 * ped - P, ort, atol=1e-12)


class TestAntiOrthotomic:
    def test_circle_radius_halves(self):
        F = catalog("circle", {"R": 2.0})
        res = anti_orthotomic(F, [0.0, 0.0]).result
        g = _grid(F)
        fv = res.eval(g)[0]
        np.testing.assert_allclose(np.linalg.norm(fv, axis=1), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(res.eval(g)[1], fv, atol=1e-12)

    @pytest.mark.parametrize("name", ["circle", "cusp", "circle-cubic"])
    def test_equidistance(self, name):
        F = catalog(name)
        g = _grid(F, 128)
        P = sample_poles(F, g, 1)[0]
        anti = anti_orthotomic(F, P).result
        fv = F.eval(g)[0]
        ftv = anti.eval(g)[0]
        np.testing.assert_allclose(np.linalg.norm(ftv - P, axis=1),
                                   np.linalg.norm(ftv - fv, axis=1),
                                   atol=1e-9)

    def test_keeps_sign_of_zero(self):
        # a point frontal at (-0.0, 1) with nu = (0, 1): the image is
        # f - c nu with c > 0, so its first coordinate is -0.0 - 0.0 = -0.0;
        # writing f as (2/lam) f - (2/lam - 1) P would give +0.0 for P1 < 0
        def f(x):
            return np.tile([-0.0, 1.0], (x.shape[0], 1))

        def nu(x):
            return np.tile([0.0, 1.0], (x.shape[0], 1))

        F = Frontal(domain=interval(-1.0, 1.0), f=f, nu=nu, ambient_dim=2)
        out = anti_orthotomic(F, [-0.5, 0.0]).result.eval(np.zeros((1, 1)))[0]
        assert out[0, 0] == 0.0 and np.signbit(out[0, 0])

    def test_result_is_frontal(self):
        F = catalog("circle-cubic")
        g = _grid(F, 128)
        P = sample_poles(F, g, 1)[0]
        anti = anti_orthotomic(F, P).result
        assert check_frontal(anti, g).passed


class TestNegativePedal:
    def test_circle_cubic_self_inverse(self):
        # pedal of the unit circle about its center is itself, so the
        # negative pedal must restore the input, singular point included
        G = catalog("circle-cubic")
        t = np.linspace(-1.2, 1.2, 512, endpoint=False)[:, None]
        assert np.any(t == 0.0)
        res = negative_pedal(G, [0.0, 0.0]).result
        np.testing.assert_allclose(res.eval(t)[0], G.eval(t)[0], atol=1e-12)
        np.testing.assert_allclose(res.eval(t)[1], G.eval(t)[1], atol=1e-12)

    def test_circle_self_inverse(self):
        G = catalog("circle")
        g = _grid(G)
        res = negative_pedal(G, [0.0, 0.0]).result
        np.testing.assert_allclose(res.eval(g)[0], G.eval(g)[0], atol=1e-12)

    @pytest.mark.parametrize("name", ["circle", "cusp", "sphere"])
    def test_matches_doubled_anti_orthotomic(self, name):
        G = catalog(name)
        g = _grid(G, 128)
        P = sample_poles(G, g, 1)[0]

        def f2(x):
            return 2.0 * G.eval(x)[0] - P

        F2 = Frontal(domain=G.domain, f=f2, nu=G.nu,
                     ambient_dim=G.ambient_dim)
        np.testing.assert_allclose(
            negative_pedal(G, P).result.eval(g)[0],
            anti_orthotomic(F2, P).result.eval(g)[0], atol=1e-10)


class TestDegeneracy:
    """The pole (1, 0) lies on the unit circle at t = 0, where the support
    value d is exactly 0; t = pi/2 and pi have d = 1 and 2."""

    X = np.array([[np.pi / 2], [0.0], [np.pi]])

    @pytest.mark.parametrize("build", [orthotomic, pedal],
                             ids=lambda b: b.__name__)
    def test_forward_gauss_map_degenerates(self, build):
        F = catalog("circle")
        T = build(F, [1.0, 0.0])
        image = T.image(self.X, *F.eval(self.X))
        assert np.all(np.isfinite(image))  # the image exists at d = 0
        with pytest.raises(GaussDegenerateError) as exc:
            T.result.eval(self.X)
        assert exc.value.x.tolist() == [0.0] and exc.value.value == 0.0

    @pytest.mark.parametrize("which", [0, 1], ids=["f", "nu"])
    @pytest.mark.parametrize("build", [anti_orthotomic, negative_pedal],
                             ids=lambda b: b.__name__)
    def test_inverse_pole_on_silhouette(self, build, which):
        res = build(catalog("circle"), [1.0, 0.0]).result
        with pytest.raises(PoleOnSilhouetteError) as exc:
            res.eval(self.X)[which]
        assert exc.value.x.tolist() == [0.0] and exc.value.value == 0.0


class TestSingleWrap:
    @pytest.mark.parametrize("which", [0, 1], ids=["f", "nu"])
    def test_depth_two_round_trip_wraps_once(self, which, monkeypatch):
        F = catalog("circle")
        P = np.array([0.3, -0.2])
        back = anti_orthotomic(orthotomic(F, P).result, P).result
        g = _grid(F, 64) + 7.0  # outside [0, 2 pi): the one wrap matters
        expected = F.eval(g)[which]
        calls = []
        wrap = ParamDomain.wrap

        def counted_wrap(self, x):
            calls.append(x.shape)
            return wrap(self, x)

        monkeypatch.setattr(ParamDomain, "wrap", counted_wrap)
        out = back.eval(g)[which]
        assert calls == [g.shape]
        np.testing.assert_allclose(out, expected, atol=1e-8)


def _depth_two(F, P):
    return anti_orthotomic(orthotomic(F, P).result, P).result


JET_CASES = [(k.value, lambda F, P, k=k: transform(k, F, P).result)
             for k in TransformKind] + [("anti-orthotomic(orthotomic)",
                                         _depth_two)]


def _interior_points(F, count, seed):
    """Seeded points at least 1e-2 inside non-periodic ends; on the square,
    at least 1e-3 away from the integer breakpoints of its segments."""
    dom = F.domain
    rng = np.random.default_rng(seed)
    lo = np.where(dom.periodic, dom.lo, dom.lo + 1e-2)
    hi = np.where(dom.periodic, dom.hi, dom.hi - 1e-2)
    x = rng.uniform(lo, hi, (count, F.param_dim))
    if F.name == "square":
        x[:, 0] = np.floor(x[:, 0]) + rng.uniform(1e-3, 1.0 - 1e-3, count)
    return x


class TestJetOracle:
    """Order-1 jets against central differences of their order-0 parts."""

    @pytest.mark.parametrize("case", [c for c, _ in JET_CASES] + ["source"])
    @pytest.mark.parametrize("name", catalog_names())
    def test_jacobians_match_central_differences(self, name, case):
        F = catalog(name)
        P = sample_poles(F, _grid(F, 256), 1)[0]
        G = F if case == "source" else dict(JET_CASES)[case](F, P)
        x = _interior_points(F, 64, seed=len(name))
        fv, nv, Jf, Jn = G.eval(x, 1)
        np.testing.assert_array_equal(fv, G.eval(x)[0])
        np.testing.assert_array_equal(nv, G.eval(x)[1])
        for i, J in enumerate((Jf, Jn)):
            fd = _fd_jacobian(lambda t: G.eval_wrapped(t)[i], G.domain, x)
            assert J.shape == (64, F.ambient_dim, F.param_dim)
            assert np.max(np.abs(J - fd) / (1.0 + np.abs(J))) <= 1e-6


class TestSingleEvaluation:
    @pytest.mark.parametrize("case", [c for c, _ in JET_CASES])
    @pytest.mark.parametrize("name", ["circle", "sphere"])
    def test_each_source_evaluator_runs_once(self, name, case):
        rows = defaultdict(list)
        F = counting(catalog(name), rows)
        G = dict(JET_CASES)[case](F, sample_poles(F, _grid(F, 64), 1)[0])
        g = _grid(F, 64)
        k = len(g)
        rows.clear()
        G.eval(g, 0)
        assert rows == {"f": [k], "nu": [k]}
        rows.clear()
        G.eval(g, 1)
        assert rows == {"f": [k], "nu": [k], "jac_f": [k], "jac_nu": [k]}

    def test_shared_evaluator_runs_once(self):
        rows = defaultdict(list)
        F = catalog("sphere")
        g = _grid(F, 64)
        F = counting(F, rows)
        F = dataclasses.replace(F, nu=F.f, jac_nu=F.jac_f)
        fv, nv, Jf, Jn = F.eval(g, 1)
        assert rows == {"f": [len(g)], "jac_f": [len(g)]}
        assert nv is fv and Jn is Jf


class TestApply:
    """apply on a held source jet gives the bits of the lazy result."""

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("kind", list(TransformKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("name", catalog_names())
    def test_matches_eval_wrapped(self, name, kind, order):
        F = catalog(name)
        x = F.domain.wrap(_grid(F, 256))
        T = transform(kind, F, sample_poles(F, x, 1)[0])
        held = T.apply(x, *F.eval_wrapped(x, order))
        lazy = T.result.eval_wrapped(x, order)
        assert len(held) == len(lazy) == 2 + 2 * order
        for a, b in zip(held, lazy):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", list(TransformKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("name", catalog_names())
    def test_without_gauss_jacobian(self, name, kind):
        """gauss_jacobian=False gives None for Jnu' and the bits of the
        full apply for the other three outputs."""
        F = catalog(name)
        x = F.domain.wrap(_grid(F, 256))
        T = transform(kind, F, sample_poles(F, x, 1)[0])
        jet = F.eval_wrapped(x, 1)
        full = T.apply(x, *jet)
        short = T.apply(x, *jet, gauss_jacobian=False)
        assert len(short) == 4 and short[3] is None
        for a, b in zip(short[:3], full[:3]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", list(TransformKind), ids=lambda k: k.value)
    def test_result_is_its_jet(self, kind):
        """A transformed frontal has no maps of its own: its jet, apply on
        one source evaluation, is its one evaluator."""
        R = transform(kind, catalog("circle"), [0.1, 0.2]).result
        assert R.f is None and R.nu is None and R.jet is not None

    def test_survives_dataclass_replace(self):
        F = catalog("circle")
        T = orthotomic(F, [0.1, 0.2])
        assert dataclasses.replace(T, result=F).apply is T.apply


# sha256 of `frontalforge transform --out` (Gauss columns included, 256
# samples) at these NS poles, recorded before the four transforms became one
# construction.  `square` is left out: catalog._bump evaluates np.exp, whose
# last bit depends on the SIMD level numpy picks at run time, so its bytes
# are not portable.
PINNED_POLES = {"circle": "0.3,-0.2", "circle-cubic": "0.1,0.2",
                "cusp": "0.1,1.5", "nonfront": "0,1", "constant": "0.3,-0.2",
                "sphere": "0.1,0.2,-0.1"}
PINNED_SHA256 = {
    ("circle", "orthotomic"):
        "d13be949bb70e286550586debba3addd6385adbceb44e152551cda9c8524aef0",
    ("circle", "pedal"):
        "f1bc04e772db67eaef7b0d0b901b58412051a1744fe8f4d70828b48bab13423f",
    ("circle", "anti-orthotomic"):
        "3e45ad8da5df8c4ece81574ce1034d526aafb5c37ea2defa8669a4810c096b65",
    ("circle", "negative-pedal"):
        "a1b707d13bbec4ad6d5dbf75b5b57d03b59719c281d916a590b85f4ecd9e17cb",
    ("circle-cubic", "orthotomic"):
        "b1f6b96798119afe6861bba7eeba945a5d2d66ff32c3affe1e59786af2dfef17",
    ("circle-cubic", "pedal"):
        "8fe7c38b0b6067770f71ae48cc8c69a2f3c6a013384150e845d070f16d706e21",
    ("circle-cubic", "anti-orthotomic"):
        "4a9c2e5da37da3e1a075471dedb029c7d43c6f31a5422673b24e9547c1a48836",
    ("circle-cubic", "negative-pedal"):
        "a3bc8dbb532f64d2b1575f2f9e62468aa33ba12d9d558f136a405f265acff41f",
    ("cusp", "orthotomic"):
        "5be9066f578e558c24d69bf6ed141c6894d5c4d5e33083f7494368563f7bb87a",
    ("cusp", "pedal"):
        "8083426d7b31d084ec2b0ce60d6b91c24f98a0a2020bf6e585c195a4416d895f",
    ("cusp", "anti-orthotomic"):
        "03838455774fd2bc8d9142c4cfc09a0560797142a4a54ef3ccce0e5e8c44867d",
    ("cusp", "negative-pedal"):
        "59f6a7bb4f9fd71d34ea37c95e82c715234552386f783e0ac13db01064dea303",
    ("nonfront", "orthotomic"):
        "dbfef900b2e3ae81fa5b3af1134792b927d313217fc0543c532cd0e62e2921a1",
    ("nonfront", "pedal"):
        "68200fa6019e8c803f22067142fdd2c318df1eb3768d781f318224a4aed39626",
    ("nonfront", "anti-orthotomic"):
        "5e74ccbc95575657a6dba4b4b229bebce5c4aea2b8ff6d41eacf978eb5d02217",
    ("nonfront", "negative-pedal"):
        "23b3e470a5e4b4704f35b8314befacc8809772d295d08eca5365f7aefdd02182",
    ("constant", "orthotomic"):
        "42d125607cf3334baf8273567bbf3ba5eebaae922a8f8310256b65daaa1d17ab",
    ("constant", "pedal"):
        "dba27ea79b191a4302d927177c0d0845ba0df8c6d3bafb86aacbf1d8df3a8f5c",
    ("constant", "anti-orthotomic"):
        "5d1cab42d29ad36a315e9367396325fb540023f124bfdc98f7d4b89b57a62287",
    ("constant", "negative-pedal"):
        "feacc7107d014d7974af1bef3aa121cffca915605488a81c8811cf8b0ebbbf43",
    ("sphere", "orthotomic"):
        "8dfe56014b4a6b311483235b7d46a6c043a64734fcb314fe9a3f2989fc5fb2a2",
    ("sphere", "pedal"):
        "8c79c5c8e9b120f565ba5cd8e5c8590baa72b703af77ca6ee0a966ee58cd99dd",
    ("sphere", "anti-orthotomic"):
        "f73a9e193554ad79351e650d634c064fe22144cc08736b4fd4c96f069c125ce4",
    ("sphere", "negative-pedal"):
        "2fdba271cf05e40a5f7a264a7af03591abad8332d533451fd88e2f63334e8706",
}


@pytest.mark.parametrize("name,kind", list(PINNED_SHA256),
                         ids=lambda v: v)
def test_transform_csv_bytes_pinned(name, kind, tmp_path):
    out = tmp_path / "t.csv"
    assert main(["transform", "--catalog", name, "--kind", kind,
                 f"--pole={PINNED_POLES[name]}", "--samples", "256",
                 "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PINNED_SHA256[name, kind]


class TestRoundTrips:
    @pytest.mark.parametrize("name", ["circle", "cusp", "square", "sphere"])
    def test_orthotomic_anti_orthotomic(self, name):
        F = catalog(name)
        g = _grid(F, 128)
        P = sample_poles(F, g, 1)[0]
        back = anti_orthotomic(orthotomic(F, P).result, P).result
        np.testing.assert_allclose(back.eval(g)[0], F.eval(g)[0], atol=1e-8)

    def test_pedal_negative_pedal(self):
        G = catalog("circle")
        g = _grid(G)
        P = np.array([0.25, -0.1])
        back = negative_pedal(pedal(G, P).result, P).result
        np.testing.assert_allclose(back.eval(g)[0], G.eval(g)[0], atol=1e-8)


class TestEquivariance:
    @given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
           st.sampled_from([TransformKind.ORTHOTOMIC,
                            TransformKind.ANTI_ORTHOTOMIC,
                            TransformKind.PEDAL,
                            TransformKind.NEGATIVE_PEDAL]))
    @settings(max_examples=40, deadline=None)
    def test_translation(self, shift, kind):
        c = np.asarray(shift)
        F = catalog("circle")
        P = np.array([0.2, 0.3])

        def fshift(x):
            return F.eval(x)[0] + c

        Fc = Frontal(domain=F.domain, f=fshift, nu=F.nu, ambient_dim=2)
        g = _grid(F, 64)
        a = transform(kind, F, P).result.eval(g)[0]
        b = transform(kind, Fc, P + c).result.eval(g)[0]
        np.testing.assert_allclose(b, a + c, atol=1e-10)


class TestSamplePoles:
    @pytest.mark.parametrize("name", catalog_names())
    def test_all_catalogs_yield_members(self, name):
        F = catalog(name)
        g = _grid(F, 256)
        poles = sample_poles(F, g, 5)
        assert poles.shape == (5, F.ambient_dim)
        for P in poles:
            assert ns_membership(F, P, g).member

    def test_too_few_tries_is_typed_error(self, monkeypatch):
        monkeypatch.setattr(transforms, "POLE_MAX_TRIES", 1)
        F = catalog("circle")
        with pytest.raises(EmptyNSSetError, match="only [01]/5"):
            sample_poles(F, _grid(F, 64), 5)

    def test_deterministic(self, monkeypatch):
        F = catalog("cusp")
        g = _grid(F, 128)
        default = sample_poles(F, g, 3)
        np.testing.assert_array_equal(sample_poles(F, g, 3), default)
        monkeypatch.setattr(transforms, "POLE_SAMPLER_SEED", 1)
        assert not np.array_equal(sample_poles(F, g, 3), default)

    def test_box_too_large_is_typed_error(self):
        """A finite image whose bounding box overflows raises the typed
        error, not an OverflowError from the random generator."""
        F = catalog("circle", {"R": 1e308})
        with pytest.raises(EmptyNSSetError, match="no finite width"):
            sample_poles(F, _grid(F, 64), 5)


# sha256 of the poles sample_poles(F, grid_for(F, n, GRID_INSET), 5) draws,
# over n in SAMPLER_COUNTS in turn; the square is left out for the reason
# given at PINNED_POLES.  The support values are plain ufuncs in a fixed
# order, so the poles must not follow the SIMD level or the BLAS kernel.
SAMPLER_COUNTS = (16, 24, 32, 64, 256, 1024, 4096)
SAMPLER_SHA256 = {
    "circle":
        "612c815b90ce510d2ee17482728e01e399d8d6001b92612d2bc97b9bf83b1393",
    "circle-cubic":
        "b8447cd7d1859f26170f582962caa9e4eccee73dc2c8192d2e042cea571b5ee8",
    "constant":
        "dbd0a6d9a935606a463cf67be4869a1629ca0697d597e16d386b5996800e5401",
    "cusp":
        "e44f45db4df3364f6962707411006f034c4bc1228be688c5829d9f8caf56b12a",
    "nonfront":
        "c303609ac4e3b8f96d67a33671abc1c9c702691812990894c7eaaa62c7750fc2",
    "sphere":
        "6134581f5ae7e9cda769a24e8e460a21a3d3cfd100de6b94804160eeb8d9b1c2",
}


@pytest.mark.parametrize("name", sorted(SAMPLER_SHA256))
def test_sample_poles_bytes_pinned(name):
    F = catalog(name)
    digest = hashlib.sha256()
    for n in SAMPLER_COUNTS:
        digest.update(sample_poles(
            F, grid_for(F, n, interior_margin=GRID_INSET), 5).tobytes())
    assert digest.hexdigest() == SAMPLER_SHA256[name]


def _sample_poles_unscreened(F, grid, count, values, accept_rows=None):
    """sample_poles before candidates were screened on a subsample: every
    candidate gets the full-grid check.  accept_rows, when given, is a
    stride at which the mutant accepts on that subsample alone."""
    fv, nv = values[:2]
    lo = fv.min(axis=0)
    hi = fv.max(axis=0)
    diag = _length(hi - lo)
    pad = 0.5 * diag + 0.5
    lo = lo - pad
    hi = hi + pad
    scale = max(diag, 1.0)
    rng = np.random.default_rng(transforms.POLE_SAMPLER_SEED)
    a = np.einsum("km,km->k", fv, nv)
    if accept_rows is not None:
        a, nv = a[::accept_rows], nv[::accept_rows]
    nu_cols = np.ascontiguousarray(nv.T)
    poles = []
    for _ in range(transforms.POLE_MAX_TRIES):
        P = rng.uniform(lo, hi)
        d = support_values(a, nu_cols, P)
        if float(d.min()) > transforms.POLE_MARGIN_FRAC * scale \
                or float(d.max()) < -transforms.POLE_MARGIN_FRAC * scale:
            poles.append(P)
            if len(poles) == count:
                return np.array(poles)
    raise EmptyNSSetError(
        f"pole sampler found only {len(poles)}/{count} valid poles "
        f"in {transforms.POLE_MAX_TRIES} tries")


_SAMPLER_SEEDS = (transforms.POLE_SAMPLER_SEED, 1, 2)


def _suite_jet(name, samples):
    """A catalog frontal and its (f, nu) on an identity suite's grid."""
    F = catalog(name)
    grid = F.domain.wrap(grid_for(F, samples, interior_margin=1e-3))
    return F, grid, F.eval_wrapped(grid)


class TestPoleScreen:
    """sample_poles screens candidates on a subsample of rows; the poles it
    accepts are those of the unscreened loop."""

    @pytest.mark.parametrize("samples", [1024, 65536])
    @pytest.mark.parametrize("name", catalog_names())
    def test_matches_unscreened_sampler(self, name, samples, monkeypatch):
        F, grid, values = _suite_jet(name, samples)
        for seed in _SAMPLER_SEEDS:
            monkeypatch.setattr(transforms, "POLE_SAMPLER_SEED", seed)
            want = _sample_poles_unscreened(F, grid, N_POLES, values)
            got = sample_poles(F, grid, N_POLES, values=values)
            assert got.tobytes() == want.tobytes(), (name, samples, seed)

    def test_mutant_accepting_on_screen_alone_differs(self, monkeypatch):
        """Accepting on the screening rows alone moves poles in the cases
        above, so the equivalence test catches such a mutant."""
        moved = []
        for name in catalog_names():
            F, grid, values = _suite_jet(name, 1024)
            for seed in _SAMPLER_SEEDS:
                monkeypatch.setattr(transforms, "POLE_SAMPLER_SEED", seed)
                stride = transforms._screen_stride(len(grid))
                mutant = _sample_poles_unscreened(F, grid, N_POLES, values,
                                                  accept_rows=stride)
                got = sample_poles(F, grid, N_POLES, values=values)
                if mutant.tobytes() != got.tobytes():
                    moved.append((name, seed))
        assert moved

    @pytest.mark.parametrize("name", catalog_names())
    def test_screen_support_values_are_full_ones(self, name):
        """d on the copied screening rows has the bits of the full d at
        those rows, so a screen rejection is a full-grid rejection."""
        F, grid, (fv, nv) = _suite_jet(name, 65536)
        stride = transforms._screen_stride(len(grid))
        a, nu_cols = np.einsum("km,km->k", fv, nv), np.ascontiguousarray(nv.T)
        a_screen, nu_screen = a[::stride].copy(), nu_cols[:, ::stride].copy()
        rng = np.random.default_rng(5)
        for P in rng.uniform(-2.0, 2.0, (16, F.ambient_dim)):
            full = support_values(a, nu_cols, P)
            assert support_values(a_screen, nu_screen, P).tobytes() \
                == full[::stride].tobytes()

    def test_screen_rows_do_not_alias_the_grid(self):
        """On the sphere's 256 x 256 grid the screening rows spread over
        both parameter axes, not one meridian."""
        _, grid, _ = _suite_jet("sphere", 65536)
        rows = grid[::transforms._screen_stride(len(grid))]
        assert len(rows) <= transforms.POLE_SCREEN_ROWS
        for axis in range(grid.shape[1]):
            assert len(np.unique(rows[:, axis])) > 1
