import hashlib
import json
import warnings
from collections import defaultdict

import numpy as np
import pytest
from conftest import counting

from frontalforge import cli, errors
from frontalforge.catalog import catalog
from frontalforge.cli import (EXIT_DEGENERATE, EXIT_OK, EXIT_USAGE,
                              EXIT_VERIFY_FAIL, main)


def run(argv):
    return main(argv)


# One command per --tol-* option, the option last.
_TOL_COMMANDS = [
    ["transform", "--catalog", "circle", "--kind", "pedal", "--pole", "0,0",
     "--tol-degeneracy"],
    ["ns", "--catalog", "circle", "--bbox=-2,2,-2,2", "--tol-ns"],
    ["cahn-hoffman", "--catalog", "circle", "--pole", "0,0", "--tol-jnu"],
    ["front-check", "--catalog", "circle", "--pole", "0,0", "--tol-rank"]]


class TestCatalog:
    def test_lists_names(self, capsys):
        assert run(["catalog"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("circle", "square", "sphere", "nonfront"):
            assert name in out


class TestTransform:
    def test_csv_to_stdout(self, capsys):
        code = run(["transform", "--catalog", "circle", "--kind", "pedal",
                    "--pole", "0,0", "--samples", "8"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t1,f1,f2,nu1,nu2"
        assert len(lines) == 9

    def test_anti_orthotomic_halves_radius(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = run(["transform", "--catalog", "circle", "--param", "R=2",
                    "--kind", "anti-orthotomic", "--pole", "0,0",
                    "--samples", "64", "--out", str(out)])
        assert code == EXIT_OK
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_allclose(np.hypot(rows[:, 1], rows[:, 2]), 1.0,
                                   atol=1e-9)

    def test_svg_written(self, tmp_path):
        svg = tmp_path / "sq.svg"
        code = run(["transform", "--catalog", "square", "--kind",
                    "orthotomic", "--pole", "0.3,-0.2", "--samples", "256",
                    "--svg", str(svg)])
        assert code == EXIT_OK
        text = svg.read_text()
        assert text.startswith('<?xml') and "<polyline" in text

    def test_svg_rejects_3d(self, capsys):
        code = run(["transform", "--catalog", "sphere", "--kind", "pedal",
                    "--pole", "0,0,0", "--samples", "16",
                    "--svg", "/tmp/never.svg"])
        assert code == EXIT_USAGE

    def test_bad_pole_dimension(self, capsys):
        code = run(["transform", "--catalog", "circle", "--kind", "pedal",
                    "--pole", "0,0,0", "--samples", "8"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: pole has dimension 3, expected 2\n"

    def test_unknown_catalog(self, capsys):
        code = run(["transform", "--catalog", "nope", "--kind", "pedal",
                    "--pole", "0,0"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("value", ["NaN", "1e400", "-1e400"])
    @pytest.mark.parametrize("name, key",
                             [("circle", "R"), ("circle-cubic", "c")])
    def test_non_finite_catalog_parameter_is_usage_error(
            self, name, key, value, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(["transform", "--catalog", name, "--param",
                    f"{key}={value}", "--kind", "pedal", "--pole", "0.1,0.2",
                    "--out", str(out)]) == EXIT_USAGE
        assert "finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_pole_exit_code(self, capsys):
        # origin lies on every normal line of the circle: anti-orthotomic
        # works, but the orthotomic Gauss map degenerates for a pole on
        # the curve itself
        code = run(["transform", "--catalog", "circle", "--kind",
                    "anti-orthotomic", "--pole", "1,0", "--samples", "64"])
        assert code == EXIT_DEGENERATE
        assert "degeneracy" in capsys.readouterr().err

    @pytest.mark.parametrize("pole", ["nan,0", "0,inf", "-inf,0"])
    def test_non_finite_pole_is_usage_error(self, pole, capsys):
        code = run(["transform", "--catalog", "circle", "--kind", "pedal",
                    f"--pole={pole}", "--samples", "8"])
        assert code == EXIT_USAGE
        assert "error: bad pole" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["transform", "--catalog", "circle", "--kind", "pedal",
         "--pole", "0,0"],
        ["verify", "--suite", "thm1", "--catalog", "circle"],
        ["ns", "--catalog", "circle", "--bbox=-2,2,-2,2"],
        ["cahn-hoffman", "--catalog", "circle", "--pole", "0,0"],
        ["front-check", "--catalog", "circle", "--pole", "0,0"]],
        ids=lambda c: c[0])
    @pytest.mark.parametrize("samples", ["-5", "0", "x"])
    def test_non_positive_samples_is_usage_error(self, command, samples,
                                                 capsys):
        with pytest.raises(SystemExit) as exc:
            run(command + ["--samples", samples])
        assert exc.value.code == EXIT_USAGE
        assert "error: argument --samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command,tol", [
        pytest.param(command, tol, id=f"{tol}-{command[-1]}")
        for command in _TOL_COMMANDS
        for tol in ("nan", "inf", "-0.5", "x")]
        # a rank threshold must be positive; the other tolerances may be 0
        + [pytest.param(_TOL_COMMANDS[-1], "0", id="0---tol-rank")])
    def test_bad_tolerance_is_usage_error(self, command, tol, capsys):
        with pytest.raises(SystemExit) as exc:
            run(command + [tol, "--samples", "8"])
        assert exc.value.code == EXIT_USAGE
        assert f"error: argument {command[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", _TOL_COMMANDS[:-1],
                             ids=lambda c: c[-1])
    def test_zero_tolerance_is_accepted(self, command, capsys):
        assert run(command + ["0", "--samples", "8"]) == EXIT_OK

    def test_svg_usage_error_before_any_file(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        code = run(["transform", "--catalog", "sphere", "--kind", "pedal",
                    "--pole=0,0,0.1", "--out", str(out),
                    "--svg", str(tmp_path / "b.svg")])
        assert code == EXIT_USAGE
        assert "--svg requires ambient dimension 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("paths", [("a.csv", "b.svg", "a.csv"),
                                       ("a.csv", "a.csv", None),
                                       (None, "b.svg", "./b.svg")],
                             ids=["out=source", "out=svg", "svg=source"])
    def test_one_file_twice_is_usage_error(self, paths, tmp_path,
                                           monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["transform", "--catalog", "circle", "--kind", "pedal",
                "--pole", "0.3,-0.2", "--samples", "8"]
        for option, path in zip(("--out", "--svg", "--source-out"), paths):
            if path:
                argv += [option, path]
        assert run(argv) == EXIT_USAGE
        assert "must name different files" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_no_gauss_header(self, capsys):
        code = run(["transform", "--catalog", "circle", "--kind", "pedal",
                    "--pole", "0.3,-0.2", "--samples", "8", "--no-gauss"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t1,f1,f2"
        assert len(lines) == 9

    # a pole on the circle: d = 0 at t = 0, where the pedal's Gauss map
    # degenerates but its image (the pole itself there) exists
    _ON_CURVE = ["transform", "--catalog", "circle", "--kind", "pedal",
                 "--pole=1,0", "--samples", "64"]

    def test_no_gauss_writes_image_where_gauss_degenerates(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run(self._ON_CURVE + ["--no-gauss", "--out", str(out)]) \
            == EXIT_OK
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (64, 3)
        np.testing.assert_array_equal(rows[0], [0.0, 1.0, 0.0])

    def test_gauss_degenerates_without_no_gauss(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert run(self._ON_CURVE + ["--out", str(out)]) == EXIT_DEGENERATE
        assert "GaussDegenerateError" in capsys.readouterr().err
        assert not out.exists()

    def test_no_gauss_with_source_bytes_pinned(self, tmp_path):
        # sha256 of both files as the separate writers produced them
        out, src = tmp_path / "a.csv", tmp_path / "s.csv"
        assert run(self._ON_CURVE + ["--no-gauss", "--out", str(out),
                                     "--source-out", str(src)]) == EXIT_OK
        assert [hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (out, src)] == [
            "72fc1c034acc55ccfab6086ff9c6496e2b57f6c432ecf856c106fa4528f4a991",
            "31ea532148a8265eb27126ce6e15e360a1fc6e06c7463d90b5daf9e080bfb26a"]

    @pytest.mark.parametrize("kind", ["orthotomic", "pedal",
                                      "anti-orthotomic", "negative-pedal"])
    def test_source_evaluated_once(self, kind, tmp_path, monkeypatch):
        """--out, --svg and --source-out together run the source's f and nu
        on each grid row once."""
        rows = defaultdict(list)

        def counting_catalog(name, params=None):
            return counting(catalog(name, params), rows)

        monkeypatch.setattr(cli, "catalog", counting_catalog)
        code = run(["transform", "--catalog", "circle", "--kind", kind,
                    "--pole", "0.3,-0.2", "--samples", "100",
                    "--out", str(tmp_path / "a.csv"),
                    "--svg", str(tmp_path / "a.svg"),
                    "--source-out", str(tmp_path / "s.csv")])
        assert code == EXIT_OK
        assert rows == {"f": [100], "nu": [100]}

    # sha256 of `--no-gauss --out` at 256 samples, recorded when the image
    # came from a second evaluation of the source
    _NO_GAUSS_SHA256 = {
        ("cusp", "orthotomic"):
            "3a96312ab43297e1913f5e1120b830a42d249dccc5cc57b15366548088f9acc4",
        ("cusp", "pedal"):
            "198907b5536486bb37fc26423afd2ef9e2ebe23dfe36ab933f582494e7510d98",
        ("cusp", "anti-orthotomic"):
            "4f2d21dfe8395fc7086da4acd95c73e6f26c91082a356e41d1b711643b8a64f1",
        ("cusp", "negative-pedal"):
            "c2bb4e592859c0a4c43778802ae6f44a016ccbc4f58be8a90f11f644d0566568",
        ("sphere", "orthotomic"):
            "bb749e0bc9a2c7afc51ab61e4087ffd0385cf2920f0db9f2055c2cb8f3248d71",
        ("sphere", "pedal"):
            "5262d51d0881b6f9758a73b3158cf3d9fa69d2e475ac3f0b789f7451a7e63a63",
        ("sphere", "anti-orthotomic"):
            "0baeca0b5a2f4e76cdc74124c00a0ccd77ec33c6f45d51ad348c58948816521e",
        ("sphere", "negative-pedal"):
            "106692b03f5b4181ffb138efdb7d692eea17490ebcee52197379adbaf3ef87d6",
    }

    @pytest.mark.parametrize("name,kind", list(_NO_GAUSS_SHA256), ids=str)
    def test_no_gauss_image_bytes_pinned(self, name, kind, tmp_path):
        pole = {"cusp": "0.1,1.5", "sphere": "0,0,0.3"}[name]
        out = tmp_path / "a.csv"
        assert run(["transform", "--catalog", name, "--kind", kind,
                    f"--pole={pole}", "--samples", "256", "--no-gauss",
                    "--out", str(out), "--source-out",
                    str(tmp_path / "s.csv")]) == EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self._NO_GAUSS_SHA256[name, kind]

    @pytest.mark.parametrize("kind", ["orthotomic", "pedal",
                                      "anti-orthotomic", "negative-pedal"])
    def test_no_gauss_source_evaluated_once(self, kind, tmp_path,
                                            monkeypatch):
        """--no-gauss --source-out takes the image from the source values
        it writes: f and nu run on each grid row once, not twice."""
        rows = defaultdict(list)

        def counting_catalog(name, params=None):
            return counting(catalog(name, params), rows)

        monkeypatch.setattr(cli, "catalog", counting_catalog)
        code = run(["transform", "--catalog", "circle", "--kind", kind,
                    "--pole", "0.3,-0.2", "--samples", "100", "--no-gauss",
                    "--out", str(tmp_path / "a.csv"),
                    "--source-out", str(tmp_path / "s.csv")])
        assert code == EXIT_OK
        assert rows == {"f": [100], "nu": [100]}

    def test_non_finite_image_is_degeneracy(self, tmp_path, capsys):
        """The orthotomic of a circle of radius 1e308 has radius 2e308,
        which is inf: a typed error, exit 3, and no file."""
        out = tmp_path / "a.csv"
        code = run(["transform", "--catalog", "circle", "--param", "R=1e308",
                    "--kind", "orthotomic", "--pole", "0,0", "--samples",
                    "16", "--out", str(out)])
        assert code == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert "error: numerical degeneracy [NonFiniteSampleError]" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("no_gauss", [False, True])
    @pytest.mark.parametrize("kind", ["orthotomic", "pedal",
                                      "anti-orthotomic", "negative-pedal"])
    def test_overflow_prints_no_warning(self, kind, no_gauss, capsys):
        """On a circle of radius 1e308 the transform arithmetic overflows.
        stderr is the one error line, or empty where the image is finite
        (the pedal without its Gauss map); numpy warns nothing."""
        argv = ["transform", "--catalog", "circle", "--param", "R=1e308",
                "--kind", kind, "--pole", "0,0", "--samples", "16"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv + ["--no-gauss"] * no_gauss)
        assert caught == []
        err = capsys.readouterr().err
        if kind == "pedal" and no_gauss:
            assert (code, err) == (EXIT_OK, "")
        else:
            assert code == EXIT_DEGENERATE
            assert err.startswith("error: numerical degeneracy [")
            assert err.count("\n") == 1 and err.endswith("\n")

    def test_determinism_byte_identical(self, tmp_path):
        argv = ["transform", "--catalog", "cusp", "--kind", "orthotomic",
                "--pole", "0.1,1.5", "--samples", "128"]
        paths = []
        for i in range(2):
            p = tmp_path / f"run{i}.csv"
            assert run(argv + ["--out", str(p)]) == EXIT_OK
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestVerify:
    def test_thm1_cusp(self, tmp_path):
        rep = tmp_path / "r.json"
        code = run(["verify", "--suite", "thm1", "--catalog", "cusp",
                    "--poles", "auto:2", "--samples", "128",
                    "--json", str(rep)])
        assert code == EXIT_OK
        data = json.loads(rep.read_text())
        assert data["passed"] is True
        assert data["max_residuals"]["equidistance"] <= 1e-9

    def test_square_reconstruction(self, capsys):
        code = run(["verify", "--suite", "square-reconstruction",
                    "--pole", "0.3,-0.2", "--samples", "512"])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["max_mirror_residual"] <= 1e-6

    @pytest.mark.parametrize("name", ["circle", "no-such-frontal"])
    def test_square_reconstruction_rejects_other_catalog(self, name, capsys):
        assert run(["verify", "--suite", "square-reconstruction",
                    "--catalog", name, "--samples", "64"]) == EXIT_USAGE
        assert "square-reconstruction" in capsys.readouterr().err

    def test_square_reconstruction_accepts_square(self, capsys):
        assert run(["verify", "--suite", "square-reconstruction",
                    "--catalog", "square", "--samples", "64"]) == EXIT_OK

    @pytest.mark.parametrize("samples, code",
                             [("7", EXIT_USAGE), ("8", EXIT_OK)])
    def test_square_reconstruction_needs_a_sample_per_segment(
            self, samples, code, capsys):
        assert run(["verify", "--suite", "square-reconstruction",
                    "--samples", samples]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") if code == EXIT_USAGE else err == ""

    def test_unknown_suite(self, capsys):
        assert run(["verify", "--suite", "thm99",
                    "--catalog", "circle"]) == EXIT_USAGE

    def test_failing_suite_exit_one(self, capsys):
        # the frontal-condition suite on a sabotaged tolerance would need a
        # broken catalog; instead check thm2 with a near-silhouette pole,
        # which must surface as degeneracy, not a crash
        code = run(["verify", "--suite", "thm2", "--catalog", "circle",
                    "--pole", "1,0", "--samples", "64"])
        assert code in (EXIT_VERIFY_FAIL, EXIT_DEGENERATE)

    def test_bad_auto_pole_count_is_usage_error(self, capsys):
        for spec in ("auto:x", "auto:0"):
            assert run(["verify", "--suite", "thm1", "--catalog", "circle",
                        "--poles", spec, "--samples", "64"]) == EXIT_USAGE
            assert "bad --poles" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["thm1", "prop1", "thm3", "thm4"])
    def test_explicit_poles_are_used(self, suite, capsys):
        for argv, poles in (
                (["--poles", "-0.5,0.1;0.3,0.1"], [[-0.5, 0.1], [0.3, 0.1]]),
                (["--pole", "-0.5,0.1"], [[-0.5, 0.1]])):
            code = run(["verify", "--suite", suite, "--catalog", "circle",
                        "--samples", "32"] + argv)
            assert code == EXIT_OK
            assert json.loads(capsys.readouterr().out)["poles"] == poles

    def test_auto_poles_match_suite_sampler(self, monkeypatch, capsys):
        from frontalforge import verify

        rows = defaultdict(list)
        monkeypatch.setattr(cli, "catalog", lambda name, params=None:
                            counting(catalog(name, params), rows))
        assert run(["verify", "--suite", "thm1", "--catalog", "cusp",
                    "--poles", "auto:2", "--samples", "128"]) == EXIT_OK
        # the suite's one evaluation of F on its grid feeds the sampler
        assert rows == {key: [128] for key in ("f", "nu", "jac_f", "jac_nu")}
        auto = json.loads(capsys.readouterr().out)["poles"]
        # the sampler accepts candidates in order, so the first two of the
        # suite's N_POLES are the two that auto:2 draws
        rep = verify.suite_thm1(catalog("cusp"), samples=128)
        assert auto == rep["poles"][:2]

    def test_no_pole_found_is_degeneracy(self, monkeypatch, capsys):
        from frontalforge import transforms

        monkeypatch.setattr(transforms, "POLE_MAX_TRIES", 1)
        code = run(["verify", "--suite", "thm1", "--catalog", "circle",
                    "--poles", "auto:5", "--samples", "64"])
        assert code == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert err.startswith("error: numerical degeneracy [EmptyNSSetError]")
        assert "Traceback" not in err

    def test_overflowing_image_box_is_degeneracy(self, capsys):
        code = run(["verify", "--suite", "thm1", "--catalog", "circle",
                    "--param", "R=1e308", "--samples", "64"])
        assert code == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert err.startswith("error: numerical degeneracy [EmptyNSSetError]")
        assert "Traceback" not in err and "Warning" not in err

    def test_prop1_without_separated_point_is_degeneracy(self, capsys):
        """The constant frontal's support value is the pole's first
        coordinate, 1e-4 at every point, below prop1's 1e-3 margin."""
        code = run(["verify", "--suite", "prop1", "--catalog", "constant",
                    "--pole=0.0001,0", "--samples", "64"])
        assert code == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert err.startswith(
            "error: numerical degeneracy [SupportDegenerateError]")
        assert "Traceback" not in err

    def test_non_finite_pole_in_list_is_usage_error(self, capsys):
        code = run(["verify", "--suite", "thm1", "--catalog", "circle",
                    "--poles", "0.1,0.2;inf,0", "--samples", "32"])
        assert code == EXIT_USAGE
        assert "error: bad pole 'inf,0'" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["thm1", "thm2",
                                       "square-reconstruction"])
    def test_pole_of_wrong_length_in_list_is_usage_error(self, suite,
                                                         capsys):
        """The library checks each pole's length, before a one-pole suite
        counts them and before numpy sees rows of unequal length."""
        catalog_args = [] if suite == "square-reconstruction" else [
            "--catalog", "circle"]
        code = run(["verify", "--suite", suite, "--poles", "0,0;0.1,0,0",
                    "--samples", "32"] + catalog_args)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: pole has dimension 3, expected 2\n"

    def test_one_pole_suite_rejects_several(self, capsys):
        code = run(["verify", "--suite", "thm2", "--catalog", "circle",
                    "--poles", "0.1,0.2;0.3,0.1", "--samples", "32"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [["--pole", "5,5"],
                                      ["--poles", "0.1,0.2;0.3,0.1"],
                                      ["--poles", "auto:2"]])
    def test_poleless_suite_rejects_poles(self, argv, monkeypatch, capsys):
        from frontalforge import verify

        def no_sampling(*args, **kwargs):
            raise AssertionError("poles sampled for a suite without poles")

        monkeypatch.setattr(verify, "sample_poles", no_sampling)
        code = run(["verify", "--suite", "frontal-condition", "--catalog",
                    "circle", "--samples", "32"] + argv)
        assert code == EXIT_USAGE
        assert "takes no pole" in capsys.readouterr().err
        assert run(["verify", "--suite", "frontal-condition", "--catalog",
                    "circle", "--samples", "32"]) == EXIT_OK


class TestNegativeValues:
    def test_pole_after_space(self, capsys):
        argv = ["transform", "--catalog", "circle", "--kind", "pedal",
                "--samples", "8"]
        assert run(argv + ["--pole", "-0.5,0.1"]) == EXIT_OK
        spaced = capsys.readouterr().out
        assert run(argv + ["--pole=-0.5,0.1"]) == EXIT_OK
        assert capsys.readouterr().out == spaced

    def test_bbox_after_space(self, tmp_path):
        argv = ["ns", "--catalog", "circle", "--resolution", "16",
                "--samples", "256", "--out-pgm"]
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        assert run(argv + [str(a), "--bbox", "-2,2,-2,2"]) == EXIT_OK
        assert run(argv + [str(b), "--bbox=-2,2,-2,2"]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_non_numeric_value_left_alone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["transform", "--catalog", "circle", "--kind", "pedal",
                 "--pole", "-x,1"])
        assert exc.value.code == EXIT_USAGE


class TestNs:
    def test_pgm_stdout(self, capsys):
        code = run(["ns", "--catalog", "circle", "--bbox=-2,2,-2,2",
                    "--resolution", "16", "--samples", "256"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["P2", "16 16", "255"]

    def test_csv_output(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run(["ns", "--catalog", "circle", "--bbox=-2,2,-2,2",
                    "--resolution", "8,4", "--samples", "256",
                    "--out-csv", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,member"
        assert len(lines) == 1 + 32

    def test_degenerate_bbox(self, capsys):
        assert run(["ns", "--catalog", "circle", "--bbox=2,-2,-2,2",
                    "--resolution", "8"]) == EXIT_USAGE

    @pytest.mark.parametrize("resolution", ["1", "0,5", "x", "3,4,5",
                                            "2.5", ""])
    def test_bad_resolution_is_usage_error(self, resolution, capsys):
        code = run(["ns", "--catalog", "circle", "--bbox=-2,2,-2,2",
                    "--resolution", resolution, "--samples", "64"])
        assert code == EXIT_USAGE
        assert "error: bad --resolution" in capsys.readouterr().err

    @pytest.mark.parametrize("bbox", ["-2,inf,-2,2", "nan,2,-2,2",
                                      "-2,2,-2", "-2,2,-2,x"])
    def test_bad_bbox_is_usage_error(self, bbox, capsys):
        code = run(["ns", "--catalog", "circle", f"--bbox={bbox}",
                    "--resolution", "8", "--samples", "64"])
        assert code == EXIT_USAGE
        assert "error: bad --bbox" in capsys.readouterr().err

    def test_rejects_sphere(self, capsys):
        assert run(["ns", "--catalog", "sphere", "--bbox=-2,2,-2,2",
                    "--resolution", "8"]) == EXIT_USAGE

    @pytest.mark.parametrize("option", ["--out-pgm", "--out-csv"])
    def test_overflowing_bbox_is_usage_error(self, option, tmp_path, capsys):
        """xmax - xmin overflows to inf, which made the cell centres inf:
        an all-0 PGM, `inf,inf,0` CSV rows and numpy warnings, exit 0."""
        out = tmp_path / "r.out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["ns", "--catalog", "circle",
                        "--bbox=-1e308,1e308,-1e308,1e308", "--resolution",
                        "4", "--samples", "64", option, str(out)])
        assert (code, caught) == (EXIT_USAGE, [])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows" in err and not out.exists()

    def test_determinism(self, tmp_path):
        argv = ["ns", "--catalog", "square", "--bbox=-3,3,-3,3",
                "--resolution", "32", "--samples", "512"]
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        assert run(argv + ["--out-pgm", str(a)]) == EXIT_OK
        assert run(argv + ["--out-pgm", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestReports:
    def test_cahn_hoffman_jsonl(self, tmp_path):
        out = tmp_path / "ch.jsonl"
        code = run(["cahn-hoffman", "--catalog", "circle", "--pole", "0.5,0",
                    "--samples", "16", "--json", str(out)])
        assert code == EXIT_OK
        rows = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert len(rows) == 16
        for r in rows:
            if not r.get("singular"):
                assert r["residual"] <= 1e-5 * (
                    1.0 + float(np.linalg.norm(r["direct"])))

    def test_front_check_jsonl(self, capsys):
        code = run(["front-check", "--catalog", "nonfront", "--pole", "0,1",
                    "--samples", "9"])
        assert code == EXIT_OK
        rows = [json.loads(ln)
                for ln in capsys.readouterr().out.splitlines()]
        assert len(rows) == 9
        mid = rows[len(rows) // 2]  # the t = 0 sample
        assert abs(mid["x"][0]) < 1e-9
        assert mid["is_front"] is False
        assert all(r["consistent"] for r in rows if not r["ambiguous"])

    @pytest.mark.parametrize("command", ["front-check", "cahn-hoffman"])
    def test_non_finite_pole_is_usage_error(self, command, capsys):
        code = run([command, "--catalog", "circle", "--pole=nan,0",
                    "--samples", "8"])
        assert code == EXIT_USAGE
        assert "error: bad pole" in capsys.readouterr().err

    def test_front_check_pole_required(self, capsys):
        import pytest as _pytest

        with _pytest.raises(SystemExit) as exc:
            run(["front-check", "--catalog", "nonfront"])
        assert exc.value.code == 2


def _exit_code(argv):
    """main's return value, or the code of argparse's SystemExit."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


def _error_classes():
    return sorted((cls for cls in vars(errors).values()
                   if isinstance(cls, type)
                   and issubclass(cls, errors.FrontalForgeError)),
                  key=lambda cls: cls.__name__)


class TestExitCodes:
    @pytest.mark.parametrize("cls", _error_classes(),
                             ids=lambda cls: cls.__name__)
    def test_error_class_decides_exit_code(self, cls, monkeypatch, capsys):
        """Exit 3 for a DegenerateError, exit 2 for any other error of the
        package, each as one `error:` line."""
        try:
            exc = cls("boom")
        except TypeError:  # the errors that carry the point x and a value
            exc = cls(np.array([0.5]), 1e-12)

        def fail():
            raise exc

        monkeypatch.setattr(cli, "catalog_names", fail)
        degenerate = issubclass(cls, errors.DegenerateError)
        assert run(["catalog"]) == (EXIT_DEGENERATE if degenerate
                                    else EXIT_USAGE)
        err = capsys.readouterr().err
        prefix = (f"error: numerical degeneracy [{cls.__name__}]: "
                  if degenerate else "error: ")
        assert err == f"{prefix}{exc}\n"

    # inputs that once ended in a traceback, a warning or a wrong exit
    # code; says: a text the error line must hold
    @pytest.mark.parametrize("argv, code, says", [
        (["transform", "--catalog", "circle", "--kind", "pedal", "--pole",
          "0,0", "--samples", "8", "--params", "{}"], EXIT_USAGE, ""),
        (["transform", "--catalog", "circle", "--kind", "pedal", "--pole",
          "0,0", "--samples", "8", "--param", "R=[1]"], EXIT_USAGE, "'R'"),
        (["transform", "--catalog", "sphere", "--kind", "pedal", "--pole",
          "0,0,0", "--samples", "8", "--param", "polar_margin=nan"],
         EXIT_USAGE, "'polar_margin'"),
        (["ns", "--catalog", "circle", "--bbox=-1e308,1e308,-1e308,1e308",
          "--resolution", "4", "--samples", "64"], EXIT_USAGE, ""),
        (["verify", "--suite", "thm1", "--catalog", "circle", "--poles",
          "auto:99999999999999999999", "--samples", "8"], EXIT_DEGENERATE,
         ""),
        (["ns", "--catalog", "circle",
          "--bbox=-0.2e308,0.2e308,-0.2e308,0.2e308", "--resolution", "4",
          "--samples", "64"], EXIT_OK, ""),
        (["verify", "--suite", "thm2", "--catalog", "circle", "--poles",
          "auto:99999", "--samples", "32"], EXIT_USAGE, "takes one pole"),
        # a circle of radius 1e-300 or 1e150: exit 3 for now, where a
        # normalization of scale (ROADMAP item 4) will make each exit 0
        (["transform", "--catalog", "circle", "--param", "R=1e-300",
          "--kind", "anti-orthotomic", "--pole", "0,0", "--samples", "16"],
         EXIT_DEGENERATE, "NonFiniteSampleError"),
        (["front-check", "--catalog", "circle", "--param", "R=1e-300",
          "--pole", "0,0", "--samples", "16"], EXIT_DEGENERATE,
         "NonFiniteSampleError"),
        (["verify", "--suite", "thm4", "--catalog", "circle", "--param",
          "R=1e150", "--samples", "64"], EXIT_DEGENERATE,
         "NonFiniteSampleError"),
        (["cahn-hoffman", "--catalog", "circle", "--param", "R=1e-300",
          "--pole", "0,0", "--samples", "16"], EXIT_DEGENERATE,
         "NonFiniteSampleError"),
        (["verify", "--suite", "thm2", "--catalog", "circle", "--param",
          "R=1e-300", "--pole", "0,0", "--samples", "16"], EXIT_DEGENERATE,
         "NonFiniteSampleError"),
        # a circle-cubic whose c**3 overflows
        (["ns", "--catalog", "circle-cubic", "--param", "c=1e200",
          "--bbox=-2,2,-2,2", "--resolution", "4", "--samples", "64"],
         EXIT_USAGE, "'c'"),
        (["verify", "--suite", "frontal-condition", "--catalog",
          "circle-cubic", "--param", "c=1e200", "--samples", "64"],
         EXIT_USAGE, "'c'"),
        (["verify", "--suite", "thm1", "--catalog", "circle-cubic",
          "--param", "c=1e200", "--samples", "64"], EXIT_USAGE, "'c'"),
        (["transform", "--catalog", "circle-cubic", "--param", "c=1e200",
          "--kind", "pedal", "--pole", "0.1,0.2", "--samples", "16"],
         EXIT_USAGE, "'c'"),
        # a parameter beyond the float range
        (["transform", "--catalog", "circle", "--param", "R=1" + "0" * 400,
          "--kind", "pedal", "--pole", "0.1,0.2", "--samples", "16"],
         EXIT_USAGE, "'R'"),
        (["transform", "--catalog", "circle-cubic", "--param",
          "c=1" + "0" * 400, "--kind", "pedal", "--pole", "0.1,0.2",
          "--samples", "16"], EXIT_USAGE, "'c'"),
        # an image whose bounding-box diagonal overflows a plain norm
        (["ns", "--catalog", "circle", "--param", "R=1e300",
          "--bbox=-2,2,-2,2", "--resolution", "8", "--samples", "64"],
         EXIT_OK, ""),
        (["ns", "--catalog", "circle", "--param", "R=1e300",
          "--bbox=-2e300,2e300,-2e300,2e300", "--resolution", "8",
          "--samples", "64"], EXIT_OK, ""),
        # ||f-P|| overflows: every nu2 reads as degenerate, quietly, and a
        # scale-free nu2 (ROADMAP item 4) will make each exit 0
        (["verify", "--suite", "thm3", "--catalog", "circle",
          "--pole=1e300,0"], EXIT_DEGENERATE, "'degenerate_nu2': 256"),
        (["verify", "--suite", "thm3", "--catalog", "circle", "--param",
          "R=1e300", "--pole=0,0"], EXIT_DEGENERATE, "'degenerate_nu2': 256"),
        # grad(gamma) whose squares overflow
        (["verify", "--suite", "thm2", "--catalog", "circle-cubic",
          "--param", "c=1e100"], EXIT_OK, ""),
        # suites that test no point
        (["verify", "--suite", "thm2", "--catalog", "constant"],
         EXIT_DEGENERATE, "NoPointTestedError"),
        (["verify", "--suite", "thm4", "--catalog", "circle", "--param",
          "R=1e-6", "--pole=0,0", "--samples", "16"], EXIT_DEGENERATE,
         "'rank_ambiguous': 16")],
        ids=["params-json", "param-list", "param-nan-string",
             "bbox-overflows", "auto-poles-huge", "bbox-near-overflow",
             "auto-poles-one-pole-suite", "tiny-circle-transform",
             "tiny-circle-front-check", "huge-circle-thm4",
             "tiny-circle-cahn-hoffman", "tiny-circle-thm2",
             "huge-cubic-ns", "huge-cubic-frontal-condition",
             "huge-cubic-thm1", "huge-cubic-transform",
             "param-int-overflow", "cubic-param-int-overflow",
             "huge-circle-ns-small-box", "huge-circle-ns-huge-box",
             "huge-pole-thm3", "huge-circle-thm3", "huge-cubic-thm2",
             "constant-thm2-no-point", "tiny-circle-thm4-no-point"])
    def test_edge_input_sweep(self, argv, code, says, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _exit_code(argv) == code
        assert caught == []
        err = capsys.readouterr().err
        assert ("error: " in err) == (code != EXIT_OK)
        assert says in err
        assert "Traceback" not in err and "Warning" not in err
