import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontalforge.catalog import catalog, catalog_names
from frontalforge.cli import main
from frontalforge.errors import (EmptyNSSetError, GaussDegenerateError,
                                PoleOnSilhouetteError)
from frontalforge.frontal import (Frontal, ParamDomain, _fd_jacobian,
                                  check_frontal, interval)
from frontalforge.silhouette import ns_membership
from frontalforge.transforms import (TransformKind, anti_orthotomic,
                                     negative_pedal, orthotomic, pedal,
                                     sample_poles, transform)


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
        np.testing.assert_allclose(np.linalg.norm(res.eval_f(g), axis=1),
                                   2.0, atol=1e-12)

    def test_line_collapses_to_mirror_point(self):
        F = _line_frontal()
        res = orthotomic(F, [0.0, 1.0]).result
        fv = res.eval_f(_grid(F, 64))
        np.testing.assert_allclose(fv, np.tile([0.0, -1.0], (fv.shape[0], 1)),
                                   atol=1e-12)

    def test_square_edge_maps_to_mirror_point(self):
        F = catalog("square")
        res = orthotomic(F, [0.3, -0.2]).result
        t = (1.0 + np.linspace(0.0, 1.0, 65))[:, None]  # edge x = 1
        fv = res.eval_f(t)
        np.testing.assert_allclose(fv, np.tile([1.7, -0.2], (65, 1)),
                                   atol=1e-9)


class TestPedal:
    def test_circle_about_center_is_identity(self):
        F = catalog("circle")
        res = pedal(F, [0.0, 0.0]).result
        g = _grid(F)
        np.testing.assert_allclose(res.eval_f(g), F.eval_f(g), atol=1e-12)

    @pytest.mark.parametrize("name", ["circle", "cusp", "square"])
    def test_linkage_with_orthotomic(self, name):
        F = catalog(name)
        P = np.array([0.3, -0.2])
        g = _grid(F)
        ped = pedal(F, P).result.eval_f(g)
        ort = orthotomic(F, P).result.eval_f(g)
        np.testing.assert_allclose(2.0 * ped - P, ort, atol=1e-12)


class TestAntiOrthotomic:
    def test_circle_radius_halves(self):
        F = catalog("circle", {"R": 2.0})
        res = anti_orthotomic(F, [0.0, 0.0]).result
        g = _grid(F)
        fv = res.eval_f(g)
        np.testing.assert_allclose(np.linalg.norm(fv, axis=1), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(res.eval_nu(g), fv, atol=1e-12)

    @pytest.mark.parametrize("name", ["circle", "cusp", "circle-cubic"])
    def test_equidistance(self, name):
        F = catalog(name)
        g = _grid(F, 128)
        P = sample_poles(F, g, 1)[0]
        anti = anti_orthotomic(F, P).result
        fv = F.eval_f(g)
        ftv = anti.eval_f(g)
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
        out = anti_orthotomic(F, [-0.5, 0.0]).result.eval_f(np.zeros((1, 1)))
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
        np.testing.assert_allclose(res.eval_f(t), G.eval_f(t), atol=1e-12)
        np.testing.assert_allclose(res.eval_nu(t), G.eval_nu(t), atol=1e-12)

    def test_circle_self_inverse(self):
        G = catalog("circle")
        g = _grid(G)
        res = negative_pedal(G, [0.0, 0.0]).result
        np.testing.assert_allclose(res.eval_f(g), G.eval_f(g), atol=1e-12)

    @pytest.mark.parametrize("name", ["circle", "cusp", "sphere"])
    def test_matches_doubled_anti_orthotomic(self, name):
        G = catalog(name)
        g = _grid(G, 128)
        P = sample_poles(G, g, 1)[0]

        def f2(x):
            return 2.0 * G.eval_f(x) - P

        F2 = Frontal(domain=G.domain, f=f2, nu=G.nu,
                     ambient_dim=G.ambient_dim)
        np.testing.assert_allclose(
            negative_pedal(G, P).result.eval_f(g),
            anti_orthotomic(F2, P).result.eval_f(g), atol=1e-10)


class TestDegeneracy:
    """The pole (1, 0) lies on the unit circle at t = 0, where the support
    value d is exactly 0; t = pi/2 and pi have d = 1 and 2."""

    X = np.array([[np.pi / 2], [0.0], [np.pi]])

    @pytest.mark.parametrize("build", [orthotomic, pedal],
                             ids=lambda b: b.__name__)
    def test_forward_gauss_map_degenerates(self, build):
        res = build(catalog("circle"), [1.0, 0.0]).result
        assert np.all(np.isfinite(res.eval_f(self.X)))  # image evaluates
        with pytest.raises(GaussDegenerateError) as exc:
            res.eval_nu(self.X)
        assert exc.value.x.tolist() == [0.0] and exc.value.value == 0.0

    @pytest.mark.parametrize("which", ["eval_f", "eval_nu"])
    @pytest.mark.parametrize("build", [anti_orthotomic, negative_pedal],
                             ids=lambda b: b.__name__)
    def test_inverse_pole_on_silhouette(self, build, which):
        res = build(catalog("circle"), [1.0, 0.0]).result
        with pytest.raises(PoleOnSilhouetteError) as exc:
            getattr(res, which)(self.X)
        assert exc.value.x.tolist() == [0.0] and exc.value.value == 0.0


class TestSingleWrap:
    @pytest.mark.parametrize("which", ["eval_f", "eval_nu"])
    def test_depth_two_round_trip_wraps_once(self, which, monkeypatch):
        F = catalog("circle")
        P = np.array([0.3, -0.2])
        back = anti_orthotomic(orthotomic(F, P).result, P).result
        g = _grid(F, 64) + 7.0  # outside [0, 2 pi): the one wrap matters
        expected = getattr(F, which)(g)
        calls = []
        wrap = ParamDomain.wrap

        def counting(self, x):
            calls.append(x.shape)
            return wrap(self, x)

        monkeypatch.setattr(ParamDomain, "wrap", counting)
        out = getattr(back, which)(g)
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
        np.testing.assert_array_equal(fv, G.eval_f(x))
        np.testing.assert_array_equal(nv, G.eval_nu(x))
        for J, fun in ((Jf, G.f), (Jn, G.nu)):
            fd = _fd_jacobian(fun, G.domain, x, F.fd_step)
            assert J.shape == (64, F.ambient_dim, F.param_dim)
            assert np.max(np.abs(J - fd) / (1.0 + np.abs(J))) <= 1e-6


def _counting(F, calls):
    """F with every evaluator counting its calls into `calls`."""
    def counted(key, fun):
        def call(x):
            calls[key] += 1
            return fun(x)
        return call

    return dataclasses.replace(F, **{key: counted(key, getattr(F, key))
                                     for key in ("f", "nu", "jac_f",
                                                 "jac_nu")})


class TestSingleEvaluation:
    @pytest.mark.parametrize("case", [c for c, _ in JET_CASES])
    @pytest.mark.parametrize("name", ["circle", "sphere"])
    def test_each_source_evaluator_runs_once(self, name, case):
        calls = Counter()
        F = _counting(catalog(name), calls)
        G = dict(JET_CASES)[case](F, sample_poles(F, _grid(F, 64), 1)[0])
        g = _grid(F, 64)
        calls.clear()
        G.eval(g, 0)
        assert calls == {"f": 1, "nu": 1}
        calls.clear()
        G.eval(g, 1)
        assert calls == {"f": 1, "nu": 1, "jac_f": 1, "jac_nu": 1}

    def test_shared_evaluator_runs_once(self):
        calls = Counter()
        F = catalog("sphere")
        g = _grid(F, 64)
        F = dataclasses.replace(F, f=_counting(F, calls).f)
        F = dataclasses.replace(F, nu=F.f, jac_nu=F.jac_f)
        fv, nv, Jf, Jn = F.eval(g, 1)
        assert calls == {"f": 1}
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
        np.testing.assert_allclose(back.eval_f(g), F.eval_f(g), atol=1e-8)

    def test_pedal_negative_pedal(self):
        G = catalog("circle")
        g = _grid(G)
        P = np.array([0.25, -0.1])
        back = negative_pedal(pedal(G, P).result, P).result
        np.testing.assert_allclose(back.eval_f(g), G.eval_f(g), atol=1e-8)


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
            return F.eval_f(x) + c

        Fc = Frontal(domain=F.domain, f=fshift, nu=F.nu, ambient_dim=2)
        g = _grid(F, 64)
        a = transform(kind, F, P).result.eval_f(g)
        b = transform(kind, Fc, P + c).result.eval_f(g)
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

    def test_too_few_tries_is_typed_error(self):
        F = catalog("circle")
        with pytest.raises(EmptyNSSetError, match="only [01]/5"):
            sample_poles(F, _grid(F, 64), 5, max_tries=1)

    def test_deterministic(self):
        F = catalog("cusp")
        g = _grid(F, 128)
        np.testing.assert_array_equal(sample_poles(F, g, 3),
                                      sample_poles(F, g, 3))
        assert not np.array_equal(sample_poles(F, g, 3, seed=1),
                                  sample_poles(F, g, 3))
