"""The command-line interface: configs, CSV round trips and exit codes."""

import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import package_env
from soliton_reduce import cli
from soliton_reduce.cli import main, read_profile_csv, resolve_config
from soliton_reduce.errors import ConfigInvalid, ProfileMalformed


def write_config(path, **overrides):
    cfg = {
        "mode": "theorem2",
        "n": 2,
        "epsilon": [1, 1],
        "tau": 1.0,
        "lambda": 0.0,
        "xi_span": [1.0, 6.0],
        "initial": {"phi0": math.sqrt(2.0), "dphi0": 0.5 / math.sqrt(2.0),
                    "f0": -math.log(2.0), "df0": -0.5},
        "sample": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "count": 200,
                   "seed": 0},
        "output": {"points": 1500},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def shift_df_column(path, delta):
    """Add delta to the df column of a profile CSV in place."""
    lines = path.read_text().splitlines()
    for i in range(2, len(lines)):
        parts = lines[i].split(",")
        parts[4] = repr(float(parts[4]) + delta)
        lines[i] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


class TestResolveConfig:
    def test_defaults_filled(self):
        cfg = resolve_config({"mode": "gallery:cigar", "n": 2,
                              "epsilon": [1, 1], "tau": 1.0,
                              "xi_span": [0.0, 8.0]})
        assert cfg["alpha"] == [0.0, 0.0]
        assert cfg["tolerances"]["rel_tol"] == 1e-10
        assert cfg["output"]["points"] == 2001

    def test_collects_all_errors(self):
        with pytest.raises(ConfigInvalid) as exc:
            resolve_config({"mode": "bogus", "n": 1})
        assert len(exc.value.messages) >= 2

    def test_bad_epsilon(self):
        with pytest.raises(ConfigInvalid):
            resolve_config({"mode": "gallery:cigar", "n": 2,
                            "epsilon": [2, 1]})
        with pytest.raises(ConfigInvalid):
            resolve_config({"mode": "gallery:cigar", "n": 2,
                            "epsilon": [-1, -1]})

    def test_theorem2_needs_initial(self):
        with pytest.raises(ConfigInvalid):
            resolve_config({"mode": "theorem2", "n": 2, "epsilon": [1, 1],
                            "xi_span": [0.0, 1.0]})

    @pytest.mark.parametrize("field, bad", [
        (field, bad)
        for bad in (math.nan, math.inf, -math.inf, True)
        for field in ("tau", "lambda", "xi_span.0", "xi_span.1",
                      "initial.phi0", "initial.df0", "tolerances.rel_tol",
                      "tolerances.abs_tol", "tolerances.max_step")
    ] + [
        # Each once verified with exit 0 and "pass": 2.5 was cut to 2
        # points, "7" and true went through int().
        ("sample.count", 2.5), ("sample.count", "7"), ("sample.count", True),
        # Each once died with a traceback and exit 1, which means
        # "verification failed".
        ("sample.count", 0), ("sample.seed", -1), ("sample.box.0.0", math.nan),
        ("sample.box.1.1", math.inf), ("sample.box.1.0", 2.0),
        # NaN and Infinity once emptied every batch; -1 excluded nothing.
        ("sample.exclusion_phi", math.nan), ("sample.exclusion_phi", -1.0),
        ("sample.exclusion_sing", math.inf),
        # Integers beyond the double range once raised an OverflowError
        # inside the check itself.
        pytest.param("tau", 10 ** 400, id="tau-10**400"),
        pytest.param("initial.phi0", -10 ** 400, id="initial.phi0--10**400"),
        pytest.param("sample.box.0.1", 10 ** 400, id="sample.box.0.1-10**400"),
        # solve once wrote a CSV of 0, 1 or int(2.5) = 2 rows with exit 0.
        ("output.points", 0), ("output.points", 1), ("output.points", 2.5),
        # Sizes above the bound once died in a numpy allocation with a
        # traceback and exit 1; these checks allocate nothing.
        ("sample.count", 10 ** 7 + 1), ("output.points", 10 ** 7 + 1),
        pytest.param("sample.count", 10 ** 12, id="sample.count-10**12"),
        pytest.param("output.points", 10 ** 12, id="output.points-10**12"),
        # np.random.Philox once refused it in verify: a traceback, exit 1.
        pytest.param("sample.seed", 2 ** 128, id="sample.seed-2**128"),
    ])
    def test_rejects_non_finite_and_bool(self, tmp_path, field, bad):
        raw = json.loads(write_config(tmp_path / "c.json").read_text())
        raw["tolerances"] = {"rel_tol": 1e-10, "abs_tol": 1e-12,
                             "max_step": 0.5}
        resolve_config(json.loads(json.dumps(raw)))  # the base is valid
        *path, last = [int(k) if k.isdigit() else k
                       for k in field.split(".")]
        target = raw
        for k in path:
            target = target[k]
        target[last] = bad
        with pytest.raises(ConfigInvalid) as exc:
            resolve_config(raw)
        assert any(m.startswith(path[0] if path else last)
                   for m in exc.value.messages)

    def test_theorem3_initial_checked(self):
        base = {"mode": "theorem3", "n": 2, "epsilon": [1, 1], "tau": 1.0,
                "xi_span": [0.0, 1.0]}
        for initial in ({"c1": math.nan, "c2": 0.0, "h0": 1.0},
                        {"c1": -1.0, "c2": 0.0, "h0": True},
                        {"c1": -1.0, "c2": 0.0, "h0": 1.0, "f0": math.inf}):
            with pytest.raises(ConfigInvalid):
                resolve_config(dict(base, initial=initial))


def test_readme_schema_table_is_fields():
    # README's table of scalar fields is the one cli.FIELDS renders.
    rows = [f"| `{path}` | `{json.dumps(default)}` | {need} |"
            for path, default, _, need in cli.FIELDS]
    table = "\n".join(["| field | default | required |", "|---|---|---|",
                       *rows, "", ""])
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert table in readme.read_text()


class TestSolveVerifyRoundTrip:
    def test_cigar_pipeline(self, tmp_path, capsys):
        # theorem2 from cigar initial data at xi = 1; solve then verify.
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["solve", str(cfg), "--out", str(tmp_path)]) == 0
        prof_csv = tmp_path / "profile.csv"
        assert prof_csv.exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["termination"]["kind"] == "completed"
        assert summary["regime"] == "steady"
        assert summary["invariance"]["kind"] == "pseudo_rotational"
        assert summary["lambda_constant"] == 0.0

        assert main(["verify", str(cfg), str(prof_csv),
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "pass"
        assert report["points_evaluated"] == 200

    def test_profile_matches_closed_form(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        main(["solve", str(cfg), "--out", str(tmp_path)])
        with open(tmp_path / "profile.csv") as fh:
            comment = fh.readline()
            assert comment.startswith("#")
            assert "n=2" in comment
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1500
        for row in rows[:: 250]:
            xi = float(row["xi"])
            assert float(row["phi"]) == pytest.approx(math.sqrt(1 + xi),
                                                      abs=1e-9)
            assert float(row["f"]) == pytest.approx(-math.log(1 + xi),
                                                    abs=1e-9)

    def test_verify_flags(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        main(["solve", str(cfg), "--out", str(tmp_path)])
        prof = str(tmp_path / "profile.csv")
        # Impossible threshold: verification fails with exit code 1.
        assert main(["verify", str(cfg), prof, "--threshold", "1e-16",
                     "--out", str(tmp_path)]) == 1
        # Custom seed and point count still pass at the default threshold.
        assert main(["verify", str(cfg), prof, "--seed", "7", "--points",
                     "50", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["points_evaluated"] == 50

    def test_corrupted_profile_fails_verification(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        main(["solve", str(cfg), "--out", str(tmp_path)])
        prof = tmp_path / "profile.csv"
        lines = prof.read_text().splitlines()
        # Corrupt the dphi column of every 10th data row.
        for i in range(2, len(lines), 10):
            parts = lines[i].split(",")
            parts[2] = repr(float(parts[2]) + 2e-3)
            lines[i] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(cfg), str(bad),
                     "--out", str(tmp_path)]) == 1


class TestProfileCsv:
    def test_bytes_match_per_row_writer(self, tmp_path):
        # The theorem-2 cigar config: the batched writer must produce the
        # bytes of one sample() per row.
        path = write_config(tmp_path / "cfg.json", output={"points": 2001})
        assert main(["solve", str(path), "--out", str(tmp_path)]) == 0
        cfg = cli.load_config(path)
        _, prof, _ = cli._build_profile(cfg)
        ref = io.StringIO(newline="")
        ref.write("# soliton-reduce profile n=2 mode=theorem2\n")
        writer = csv.writer(ref)
        writer.writerow(cli.CSV_COLUMNS)
        for xi in np.linspace(1.0, 6.0, 2001):
            s = prof.sample(float(xi))
            writer.writerow([repr(float(v)) for v in
                             (s.xi, s.phi, s.dphi, s.f, s.df)])
        assert (tmp_path / "profile.csv").read_bytes() == \
            ref.getvalue().encode()

    @pytest.mark.parametrize("overrides", [
        {},
        dict(mode="gallery:space_form", n=3, epsilon=[1, 1, 1], tau=1,
             xi_span=[0.5, 4.0], sample={"box": [[-1.0, 1.0]] * 3}),
    ], ids=["integrated", "gallery"])
    def test_bytes_match_csv_writer(self, tmp_path, overrides):
        # The rows are formatted in bulk; csv.writer over the same values
        # must give the same bytes.
        path = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["solve", str(path), "--out", str(tmp_path)]) == 0
        cfg = cli.load_config(path)
        _, prof, _ = cli._build_profile(cfg)
        xis = np.linspace(*cli._csv_range(cfg, prof), 1500)
        phi, dphi, _, f, df, _ = prof.evaluate(xis)
        ref = io.StringIO(newline="")
        ref.write(f"# soliton-reduce profile n={cfg['n']} "
                  f"mode={cfg['mode']}\n")
        writer = csv.writer(ref)
        writer.writerow(cli.CSV_COLUMNS)
        for row in zip(xis, phi, dphi, f, df):
            writer.writerow([repr(float(v)) for v in row])
        assert (tmp_path / "profile.csv").read_bytes() == \
            ref.getvalue().encode()


class TestTheorem3Mode:
    def test_cigar_constants(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", mode="theorem3",
            xi_span=[0.0, 8.0],
            initial={"c1": -1.0, "c2": 0.0, "h0": 1.0, "f0": 0.0})
        assert main(["solve", str(cfg), "--out", str(tmp_path)]) == 0
        assert main(["verify", str(cfg),
                     str(tmp_path / "profile.csv"),
                     "--out", str(tmp_path)]) == 0


class TestGalleryCommand:
    def test_list(self, capsys):
        assert main(["gallery", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["gaussian", "cigar", "space_form", "n2_polynomial"]

    def test_emit_cigar(self, tmp_path):
        assert main(["gallery", "emit", "cigar", "--out",
                     str(tmp_path), "--xi-span", "0", "8"]) == 0
        prof = read_profile_csv(tmp_path / "cigar_profile.csv", 2)
        s = prof.sample(3.0)
        assert s.phi == pytest.approx(2.0, abs=1e-9)
        summary = json.loads(
            (tmp_path / "cigar_summary.json").read_text())
        assert summary["mode"] == "gallery:cigar"

    def test_emit_with_params(self, tmp_path):
        assert main(["gallery", "emit", "gaussian", "--out", str(tmp_path),
                     "--param", "k=2.0", "--param", "lam=-3.0",
                     "--param", "tau=-1.0"]) == 0
        summary = json.loads(
            (tmp_path / "gaussian_summary.json").read_text())
        assert summary["regime"] == "expanding"

    def test_emit_bad_params(self, tmp_path, capsys):
        assert main(["gallery", "emit", "cigar", "--out", str(tmp_path),
                     "--param", "lam=1.0"]) == 2

    @pytest.mark.parametrize("param, field", [
        ("k=x", "gallery_params.k"), ("bogus=1", "gallery_params.bogus"),
        ("n=2.5", "gallery_params.n"), ("eps=[1,null]", "gallery_params.eps"),
    ])
    def test_emit_ill_typed_params_exit_2(self, tmp_path, capsys, param,
                                          field):
        # Each once raised a TypeError inside the gallery builder (a
        # traceback, exit 1).
        assert main(["gallery", "emit", "gaussian", "--out", str(tmp_path),
                     "--param", param]) == 2
        assert f"invalid configuration: {field}:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_emitted_summary_solves_again(self, tmp_path):
        # The summary's config records the --param values as given; its
        # gallery_params once held the derived forced_lambda (a TypeError
        # on solve) and dropped eps.
        assert main(["gallery", "emit", "space_form", "--out",
                     str(tmp_path / "a"), "--param", "eps=[1,-1,1]",
                     "--param", "b1=0.5", "--xi-span", "0", "4"]) == 0
        summary = json.loads(
            (tmp_path / "a" / "space_form_summary.json").read_text())
        assert summary["config"]["gallery_params"] == {"eps": [1, -1, 1],
                                                       "b1": 0.5}
        assert summary["forced_lambda"] == 2.0 * 0.5 * (4.0 * 1.0 - 0.5 * 0)
        again = tmp_path / "again.json"
        again.write_text(json.dumps(summary["config"]))
        assert main(["solve", str(again), "--out", str(tmp_path / "b")]) == 0
        name = "space_form_profile.csv"
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


class TestGalleryConfig:
    """A gallery entry defines its problem; solve and verify both use it."""

    def test_space_form_verifies_with_forced_lambda(self, tmp_path):
        # lambda is forced to 8 by the entry; verify once rebuilt the
        # problem from the config's lambda (0) and failed with a tensor
        # residual of 3.4 (exit 1).
        cfg = write_config(
            tmp_path / "cfg.json", mode="gallery:space_form", n=3,
            epsilon=[1, 1, 1], tau=1, xi_span=[0.5, 4.0],
            sample={"box": [[-1.0, 1.0]] * 3, "count": 100})
        assert main(["solve", str(cfg), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["lambda"] == summary["forced_lambda"] == 8.0
        assert main(["verify", str(cfg), str(tmp_path / "profile.csv"),
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["max_tensor"] < 1e-12

    def test_cigar_without_tau_verifies(self, tmp_path):
        # verify once built tau = 0, alpha = 0 from the config and exited 2
        # with DegenerateAnsatz.
        raw = json.loads(write_config(tmp_path / "c.json").read_text())
        for key in ("tau", "lambda", "initial"):
            del raw[key]
        raw.update(mode="gallery:cigar", xi_span=[0.0, 8.0])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["solve", str(cfg), "--out", str(tmp_path)]) == 0
        assert main(["verify", str(cfg), str(tmp_path / "profile.csv"),
                     "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("name", ["gaussian", "n2_polynomial"])
    def test_exact_oracle_report_is_strict_json(self, tmp_path, name):
        # phi is constant for both defaults, so the FD oracle is exact and
        # its rate infinite: report.json once held "rate": Infinity, which
        # is not JSON.
        assert main(["gallery", "emit", name, "--out", str(tmp_path)]) == 0
        cfg = json.loads(
            (tmp_path / f"{name}_summary.json").read_text())["config"]
        cfg["sample"]["box"] = [[0.5, 1.5]] * cfg["n"]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["verify", str(tmp_path / "cfg.json"),
                     str(tmp_path / f"{name}_profile.csv"),
                     "--out", str(tmp_path)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((tmp_path / "report.json").read_text(),
                            parse_constant=reject)
        assert report["oracle_gap"]["rate"] is None

    def test_config_dimension_must_match_entry(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", mode="gallery:space_form")
        assert main(["solve", str(cfg), "--out", str(tmp_path)]) == 2
        assert "n, epsilon: gallery:space_form has n = 3" in \
            capsys.readouterr().err
        assert not (tmp_path / "profile.csv").exists()


class TestErrorExitCodes:
    def test_missing_config(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 2

    @pytest.mark.parametrize("override", [
        {"tau": math.nan}, {"xi_span": [1.0, math.inf]}],
        ids=["tau_nan", "xi_span_infinity"])
    def test_non_finite_config_exits_2(self, tmp_path, override):
        # These once hung (NaN tau) or exited 0 (an infinite span) in a
        # fresh process; now they are rejected before solving.
        cfg = write_config(tmp_path / "cfg.json", **override)
        assert "NaN" in cfg.read_text() or "Infinity" in cfg.read_text()
        out = subprocess.run(
            [sys.executable, "-m", "soliton_reduce.cli", "solve", str(cfg),
             "--out", str(tmp_path)],
            env=package_env(), capture_output=True, text=True, timeout=10)
        assert out.returncode == 2, out.stderr
        assert "invalid configuration" in out.stderr
        assert not (tmp_path / "profile.csv").exists()

    @pytest.mark.parametrize("flag", [["--points", "0"], ["--points", "-5"],
                                      ["--seed", "-1"],
                                      ["--points", str(10 ** 12)],
                                      ["--seed", str(2 ** 128)]],
                             ids=["points_0", "points_negative",
                                  "seed_negative", "points_above_bound",
                                  "seed_above_bound"])
    def test_bad_verify_flags_exit_2(self, tmp_path, flag):
        # --points 0 once fell back to the config's count; a negative count
        # or seed died with a traceback and exit 1.
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["solve", str(cfg), "--out", str(tmp_path)]) == 0
        out = subprocess.run(
            [sys.executable, "-m", "soliton_reduce.cli", "verify", str(cfg),
             str(tmp_path / "profile.csv"), "--out", str(tmp_path), *flag],
            env=package_env(), capture_output=True, text=True, timeout=30)
        assert out.returncode == 2, out.stderr
        assert f"invalid configuration: {flag[0]}:" in out.stderr
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "report.json").exists()

    def test_seed_bound(self, tmp_path, capsys):
        # A seed of 2**128 once died in np.random.Philox with a traceback
        # and exit 1, the code of a failed verification.
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["solve", str(cfg), "--out", str(tmp_path)]) == 0
        prof = str(tmp_path / "profile.csv")
        for seed, code in ((2 ** 128, 2), (2 ** 128 - 1, 0)):
            cfg = write_config(tmp_path / "cfg.json", sample={
                "box": [[-2.0, 2.0], [-2.0, 2.0]], "count": 50,
                "seed": seed})
            assert main(["verify", str(cfg), prof, "--out",
                         str(tmp_path / str(code))]) == code
        assert "invalid configuration: sample.seed:" in \
            capsys.readouterr().err
        assert not (tmp_path / "2").exists()

    def test_dimension_bound(self, tmp_path, capsys):
        # n had no upper bound: verify's FD oracle needs 19 GB at n = 100,
        # and gallery emit gaussian --param n=1000000000 asked np.ones for
        # 8 GB. Each is rejected before anything is allocated.
        n = cli.MAX_DIM + 1
        cfg = write_config(tmp_path / "cfg.json", n=n, epsilon=[1] * n,
                           sample={"box": [[-1.0, 1.0]] * n})
        assert main(["solve", str(cfg), "--out", str(tmp_path / "s")]) == 2
        assert "invalid configuration: n:" in capsys.readouterr().err
        for param, field in ((f"n={n}", "n"), (f"eps={[1] * n}", "eps")):
            assert main(["gallery", "emit", "gaussian", "--out",
                         str(tmp_path / "s"), "--param", param]) == 2
            assert f"invalid configuration: gallery_params.{field}:" in \
                capsys.readouterr().err
        assert not (tmp_path / "s").exists()
        n = cli.MAX_DIM  # the bound itself is accepted
        resolve_config({"mode": "gallery:gaussian", "n": n,
                        "epsilon": [1] * n, "gallery_params": {"n": n}})

    def test_count_bound_scales_with_n(self, tmp_path, capsys):
        # verify holds (count, n, n) residual temporaries, about 12.9 KB a
        # point at n = 16: the 10**7 points MAX_POINTS allows there would
        # have asked for about 130 GB.
        n = 16
        bound = cli.max_count(n)
        assert bound == 156_250 and cli.max_count(2) == cli.MAX_POINTS
        need = (f"at most {bound} points for n = {n} "
                f"(count * n**2 <= {4 * cli.MAX_POINTS}) required")

        def config(name, count):
            return write_config(tmp_path / name, mode="gallery:gaussian",
                                n=n, epsilon=[1] * n,
                                gallery_params={"n": n},
                                sample={"box": [[-1.0, 1.0]] * n,
                                        "count": count})

        over = config("over.json", bound + 1)
        for argv in (["solve", str(over)],
                     ["verify", str(over), str(tmp_path / "p.csv")]):
            assert main([*argv, "--out", str(tmp_path / "s")]) == 2
            assert f"invalid configuration: sample.count: {need}" in \
                capsys.readouterr().err
        ok = config("ok.json", bound)  # the bound itself is accepted
        assert resolve_config(json.loads(ok.read_text()))["sample"][
            "count"] == bound
        # --points is checked before the CSV is read; at the bound only the
        # missing CSV stops verify.
        verify = ["verify", str(ok), str(tmp_path / "p.csv"), "--out",
                  str(tmp_path / "s"), "--points"]
        assert main([*verify, str(bound + 1)]) == 2
        assert f"invalid configuration: --points: {need}" in \
            capsys.readouterr().err
        assert main([*verify, str(bound)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" not in err and "p.csv" in err
        assert not (tmp_path / "s").exists()

    def test_bad_sample_spec_exits_2(self, tmp_path, capsys):
        # An unknown sampling mode, or a grid too small for 2 points per
        # axis, once died with a traceback and exit 1.
        cfg = write_config(tmp_path / "cfg.json", sample={
            "box": [[-2.0, 2.0], [-2.0, 2.0]], "mode": "sobol"})
        assert main(["solve", str(cfg), "--out", str(tmp_path)]) == 0
        prof = str(tmp_path / "profile.csv")
        assert main(["verify", str(cfg), prof, "--out", str(tmp_path)]) == 2
        assert "sample: unknown sampling mode" in capsys.readouterr().err
        grid = write_config(tmp_path / "grid.json", sample={
            "box": [[-2.0, 2.0], [-2.0, 2.0]], "mode": "grid"})
        assert main(["verify", str(grid), prof, "--points", "3",
                     "--out", str(tmp_path)]) == 2
        assert "sample: grid mode needs" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("override, field", [
        # Each once raised inside solve or verify (a traceback, exit 1).
        ({"mode": "gallery:cigar", "gallery_params": {"bogus": 1}},
         "gallery_params.bogus"),
        ({"mode": "gallery:cigar", "gallery_params": {"tau": "x"}},
         "gallery_params.tau"),
        ({"threshold": "abc"}, "threshold"),
        ({"alpha": ["x", 0]}, "alpha"),
        # Once passed a CSV whose df column is shifted by 0.5 (exit 0).
        ({"threshold": math.inf}, "threshold"),
        # Once turned into NaN and ended as StepSizeUnderflow.
        ({"alpha": [None, 0]}, "alpha"),
        # Once raised a TypeError on writing (a traceback, exit 1).
        ({"output": {"profile_csv": 5, "report_json": ["r"]}},
         "output.profile_csv"),
        # Values the gallery builders reject: a ValueError and an
        # OverflowError (k ** 2), each once a traceback with exit 1.
        ({"mode": "gallery:space_form", "gallery_params": {"eps": [1, 2]}},
         "gallery_params"),
        ({"mode": "gallery:gaussian", "gallery_params": {"n": 2, "k": 1e200}},
         "gallery_params"),
    ], ids=["unknown_gallery_param", "ill_typed_gallery_param",
            "threshold_string", "alpha_string", "threshold_infinity",
            "alpha_null", "output_name_not_string", "gallery_value_error",
            "gallery_overflow"])
    def test_bad_value_exits_2_naming_field(self, tmp_path, capsys,
                                            override, field):
        good = write_config(tmp_path / "good.json")
        assert main(["solve", str(good), "--out", str(tmp_path)]) == 0
        shift_df_column(tmp_path / "profile.csv", 0.5)
        cfg = write_config(tmp_path / "cfg.json", **override)
        for argv in (["solve", str(cfg), "--out", str(tmp_path / "s")],
                     ["verify", str(cfg), str(tmp_path / "profile.csv"),
                      "--out", str(tmp_path / "v")]):
            assert main(argv) == 2
            assert f"invalid configuration: {field}:" in \
                capsys.readouterr().err
        assert not (tmp_path / "s").exists() and not (tmp_path / "v").exists()

    @pytest.mark.parametrize("span", [[1.0, 6.0], [1.0, 1.0002]],
                             ids=["cigar", "short"])
    def test_max_step_beyond_step_budget_exits_2(self, tmp_path, capsys,
                                                 span):
        # With max_step 1e-9 the [1, 6] cigar once ran for minutes (5e9
        # steps), and [1, 1.0002] took 2e5 steps to exit 0.
        cfg = write_config(tmp_path / "cfg.json", xi_span=span,
                           tolerances={"max_step": 1e-9})
        assert main(["solve", str(cfg), "--out", str(tmp_path / "s")]) == 2
        assert "invalid configuration: tolerances.max_step:" in \
            capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_max_step_within_step_budget_accepted(self):
        # Exactly the budget: 5 / 5e-5 = 100000 steps.
        resolve_config({"mode": "theorem2", "n": 2, "epsilon": [1, 1],
                        "tau": 1.0, "xi_span": [1.0, 6.0],
                        "initial": {"phi0": 1.0, "dphi0": 0.0, "f0": 0.0,
                                    "df0": 0.0},
                        "tolerances": {"max_step": 5e-5}})
        # A gallery profile is not integrated: its max_step is unused.
        resolve_config({"mode": "gallery:cigar", "n": 2, "epsilon": [1, 1],
                        "xi_span": [1.0, 6.0],
                        "tolerances": {"max_step": 1e-9}})

    @pytest.mark.parametrize("section, key", [("output", "points"),
                                              ("sample", "count")])
    def test_oversized_sizes_exit_2(self, tmp_path, capsys, section, key):
        # 10**12 once died in a numpy allocation with a traceback and
        # exit 1; the bound is checked before anything is allocated.
        base = json.loads(write_config(tmp_path / "base.json").read_text())
        cfg = write_config(tmp_path / "cfg.json", **{
            section: dict(base.get(section, {}), **{key: 10 ** 12})})
        assert main(["solve", str(cfg), "--out", str(tmp_path / "s")]) == 2
        assert f"invalid configuration: {section}.{key}: integer in" in \
            capsys.readouterr().err
        assert not (tmp_path / "s").exists()
        raw = json.loads(cfg.read_text())
        raw[section][key] = cli.MAX_POINTS  # the bound itself is accepted
        assert resolve_config(raw)[section][key] == cli.MAX_POINTS

    def test_threshold_flag_must_be_positive_finite(self, tmp_path, capsys):
        # --threshold inf once passed a CSV whose df column is shifted by
        # 0.5 with exit 0.
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["solve", str(cfg), "--out", str(tmp_path)]) == 0
        shift_df_column(tmp_path / "profile.csv", 0.5)
        for value in ("inf", "nan", "0", "-1e-5"):
            assert main(["verify", str(cfg), str(tmp_path / "profile.csv"),
                         f"--threshold={value}", "--out",
                         str(tmp_path / "v")]) == 2
            assert "invalid configuration: --threshold:" in \
                capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        # A file name in a missing directory once raised FileNotFoundError
        # (a traceback, exit 1).
        cfg = write_config(tmp_path / "cfg.json",
                           output={"profile_csv": "missing/profile.csv"})
        assert main(["solve", str(cfg), "--out", str(tmp_path)]) == 2
        assert "No such file or directory" in capsys.readouterr().err

    def test_lightlike_direction_rejected(self, tmp_path, capsys):
        # tau = 0 with lightlike alpha (Lambda = 0) must exit 2.
        cfg = write_config(tmp_path / "cfg.json", epsilon=[1, -1],
                           tau=0.0, alpha=[1.0, 1.0],
                           initial={"phi0": 1.0, "dphi0": 0.0, "f0": 0.0,
                                    "df0": 0.0})
        assert main(["solve", str(cfg), "--out", str(tmp_path)]) == 2
        assert "NullTranslationDirection" in capsys.readouterr().err

    @pytest.mark.parametrize("lam, reason", [
        (0.5, "no soliton exists for lambda = 0.5, because the diagonal "
              "equation collapses to lambda = 0"),
        (0.0, "with lambda = 0 every positive phi gives a steady soliton "
              "with (phi^2 f')' = -(n - 2) phi phi'', which the "
              "second-order system cannot integrate"),
    ], ids=["lambda_nonzero", "lambda_zero"])
    def test_null_translation_reason(self, tmp_path, capsys, lam, reason):
        # Both once exited 2 with "phi'' undetermined", whatever lambda.
        cfg = write_config(tmp_path / "cfg.json", n=3, epsilon=[-1, 1, 1],
                           tau=0.0, alpha=[1.0, 1.0, 0.0],
                           sample={"box": [[-1.0, 1.0]] * 3},
                           **{"lambda": lam})
        assert main(["solve", str(cfg), "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert "NullTranslationDirection: tau = 0 with Lambda = 0 " \
            "(lightlike translation direction): " + reason in err
        assert not (tmp_path / "s").exists()

    def test_dimension_mismatch_rejected(self, tmp_path):
        cfg2 = write_config(tmp_path / "cfg2.json")
        main(["solve", str(cfg2), "--out", str(tmp_path)])
        cfg3 = write_config(
            tmp_path / "cfg3.json", n=3, epsilon=[1, 1, 1],
            sample={"box": [[-2, 2]] * 3, "count": 50, "seed": 0},
            initial={"phi0": 1.0, "dphi0": 0.0, "f0": 0.0, "df0": 0.0},
            xi_span=[1.0, 6.0])
        # Profile written for n=2 cannot verify an n=3 config.
        assert main(["verify", str(cfg3), str(tmp_path / "profile.csv"),
                     "--out", str(tmp_path)]) == 2

    def test_malformed_profile_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        bad = tmp_path / "bad.csv"
        bad.write_text("xi,phi\n0,1\n")
        assert main(["verify", str(cfg), str(bad)]) == 2

    def test_read_profile_header_check(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("xi,phi,dphi,f\n0,1,0,0\n")
        with pytest.raises(ProfileMalformed):
            read_profile_csv(bad, 2)

    def test_read_profile_non_numeric(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("xi,phi,dphi,f,df\n0,1,x,0,0\n")
        with pytest.raises(ProfileMalformed):
            read_profile_csv(bad, 2)
