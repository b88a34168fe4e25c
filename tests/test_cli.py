"""End-to-end command-line tests, run in-process through main().

A session-scoped fixture synthesises a tiny dataset and trains a 12-iteration
checkpoint once; the eval/infer tests reuse it.
"""

import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphpan import graph
from graphpan.aggregation import ModelParams, forward
from graphpan.cli import bench_scaling, main, merge_config, parse_config_file
from graphpan.config import TrainConfig
from graphpan.imaging import MAX_SCENE_SIZE, MIN_SCENE_SIZE, ScenePair, read_hsif, read_ppm, synth_scene
from graphpan.metrics import full_reference
from graphpan.training import load_checkpoint, save_checkpoint

from oracles import largest_valid_d

SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_ADDRESS_SPACE = 1 << 30  # bytes


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def run_cli(*argv):
    """``python -m graphpan.cli`` in a child process importing this checkout.
    The child gets 1 GiB of address space, so a runaway allocation ends in a
    prompt MemoryError instead of exhausting the host's memory."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "graphpan.cli", *map(str, argv)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
        preexec_fn=_limit_address_space,
    )


def assert_cli_error(done, message):
    """A child that exited 1 with ``error: <message>...`` and no traceback."""
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"error: {message}")


FAST_TRAIN = [
    "--patch", "4", "--stride", "4", "--d", "8", "--k", "1", "--iters", "12", "--batch", "1",
]


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "scenes"
    run = root / "run"
    assert main(["synth", "--out", str(data), "--count", "2", "--size", "16", "--seed", "0"]) == 0
    assert main(["train", "--data", str(data), "--out", str(run)] + FAST_TRAIN) == 0
    return {"data": data, "run": run, "ckpt": run / "checkpoint_final.hssn"}


class TestSynth:
    def test_layout_and_loadability(self, tmp_path):
        out = tmp_path / "scenes"
        assert main(["synth", "--out", str(out), "--count", "3", "--size", "16"]) == 0
        dirs = sorted(p.name for p in out.iterdir())
        assert dirs == ["scene_000", "scene_001", "scene_002"]
        for d in out.iterdir():
            assert {f.name for f in d.iterdir()} == {"pan.hsif", "lrms.hsif", "gt.hsif"}
            ScenePair.load(d, need_gt=True).validate()

    def test_seed_offsets_match_library(self, tmp_path):
        out = tmp_path / "s"
        main(["synth", "--out", str(out), "--count", "2", "--size", "16", "--seed", "7"])
        pair = ScenePair.load(out / "scene_001", need_gt=True)
        want = synth_scene(8, size=16)
        np.testing.assert_array_equal(pair.gt.data, want.gt.data)

    def test_zero_scale_exit_1(self, tmp_path):
        for flag, value, message in [
            ("--scale", "0", "scale must be >= 1"),
            ("--size", "0", "scene too small for the requested scale"),
            ("--count", "0", "--count must be at least 1, got 0"),
            ("--count", "-1", "--count must be at least 1, got -1"),
        ]:
            done = run_cli("synth", "--out", tmp_path / "s", flag, value)
            assert_cli_error(done, message)
            assert not (tmp_path / "s").exists()  # a refused run writes nothing

    @pytest.mark.parametrize("size, scale", [("8", "2"), ("12", "1")])
    def test_size_below_the_minimum_exit_1(self, tmp_path, size, scale):
        # these pass the scale checks, and numpy once refused the blob draw
        done = run_cli("synth", "--out", tmp_path / "s", "--size", size, "--scale", scale)
        assert_cli_error(done, f"scene size {size} is below the minimum of {MIN_SCENE_SIZE}")
        assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command", ["synth", "patterns-dump", "ablate"])
def test_oversized_scene_exit_1(tmp_path, command):
    # refused before any raster is allocated, inside the child's 1 GiB
    extra = ["--out", tmp_path / "s"] if command == "synth" else []
    done = run_cli(command, "--size", "100000", *extra)
    assert_cli_error(done, f"scene size 100000 is above the limit of {MAX_SCENE_SIZE}")
    assert not (tmp_path / "s").exists()


class TestTrain:
    def test_outputs_and_progress(self, workdir, capsys):
        run = workdir["run"]
        assert (run / "checkpoint_final.hssn").exists()
        lines = (run / "log.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,l1,lcl,total,lr,step_s"
        assert len(lines) == 13

    def test_progress_cadence(self, tmp_path, capsys):
        data = tmp_path / "d"
        main(["synth", "--out", str(data), "--size", "16"])
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "r")] + FAST_TRAIN) == 0
        out = capsys.readouterr().out
        assert re.search(r"iter\s+0\s+l1", out)
        assert re.search(r"iter\s+10\s+l1", out)

    def test_missing_data_dir_exit_1(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "r")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        # the narrowest refused width, and one whose count dwarfs any memory
        ("--d", str(largest_valid_d() + 1)), ("--d", "100000000000"), ("--d", "100000"), ("--patch", "100000"),
    ])
    def test_oversized_model_exit_1(self, workdir, tmp_path, flag, value):
        done = run_cli("train", "--data", workdir["data"], "--out", tmp_path / "r", flag, value)
        assert_cli_error(done, "the model would hold ")
        assert not (tmp_path / "r").exists()

    def test_divergence_exit_2(self, tmp_path, capsys):
        data = tmp_path / "d"
        main(["synth", "--out", str(data), "--size", "16"])
        with np.errstate(all="ignore"):
            code = main(
                ["train", "--data", str(data), "--out", str(tmp_path / "r"),
                 "--precision", "standard", "--lr0", "1e20", "--iters", "20"]
                + FAST_TRAIN[:10]
            )
        assert code == 2
        assert "diverged" in capsys.readouterr().err
        assert (tmp_path / "r" / "checkpoint_diverged.hssn").exists()


class TestConfigMerging:
    def test_parse_config_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\n\ngamma = 0.5  # inline\n  tau=0.7\n")
        assert parse_config_file(p) == {"gamma": "0.5", "tau": "0.7"}

    def test_parse_errors(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("gamma 0.5\n")
        assert main(["train", "--data", "x", "--out", "y", "--config", str(p)]) == 1

    def test_precedence_flags_over_file_over_defaults(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("k = 2\ngamma = 0.5\n")

        class Args:
            config = str(p)

        for name in TrainConfig.field_names():
            setattr(Args, name, None)
        Args.k = "3"
        cfg = merge_config(Args())
        assert cfg.k == 3          # flag wins
        assert cfg.gamma == 0.5    # file beats default
        assert cfg.tau == 0.5      # default survives

    def test_unknown_key_exit_1(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("warp_factor = 9\n")
        assert main(["train", "--data", "x", "--out", "y", "--config", str(p)]) == 1

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "x", "--out", "y"],
        ["grad-check", "--max-coords", "2"],
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_gamma_exit_1(self, argv, value, capsys):
        assert main(argv + ["--gamma", value]) == 1
        assert capsys.readouterr().err == "error: gamma must be finite\n"

    def test_bad_number_flag_names_the_flag(self, tmp_path):
        done = run_cli("train", "--data", tmp_path, "--out", tmp_path / "r", "--iters", "abc")
        assert_cli_error(done, "--iters: iters must be an integer, got 'abc'")

    def test_bad_number_in_config_names_file_and_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("patch = abc\n")
        done = run_cli("train", "--data", tmp_path, "--out", tmp_path / "r", "--config", p)
        assert_cli_error(done, f"{p}: patch must be an integer, got 'abc'")

    def test_invalid_value_exit_1(self, tmp_path, capsys):
        data = tmp_path / "d"
        main(["synth", "--out", str(data), "--size", "16"])
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "r"), "--gamma", "-1"])
        assert code == 1

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_layers_is_no_longer_a_key(self, tmp_path, capsys, source):
        # each branch has one (d, d) map, so no depth can be asked for
        p = tmp_path / "c.cfg"
        p.write_text("layers = 2\n")
        extra = ["--layers", "2"] if source == "flag" else ["--config", str(p)]
        assert main(["train", "--data", "x", "--out", str(tmp_path / "r")] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "layers" in err
        assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv,message", [
    pytest.param(["synth", "--out", "{tmp}/s", "--size", "16", "--seed", "-5"],
                 "--seed must be non-negative, got -5", id="synth --seed"),
    pytest.param(["ablate", "--size", "16", "--seed", "-1"],
                 "--seed must be non-negative, got -1", id="ablate --seed"),
    pytest.param(["analyze-priors", "--size", "16", "--seed", "-1"],
                 "--seed must be non-negative, got -1", id="analyze-priors --seed"),
    pytest.param(["bench", "--sizes", "40,80", "--seed", "-1"],
                 "--seed must be non-negative, got -1", id="bench --seed"),
    pytest.param(["patterns-dump", "--size", "16", "--scene-seed", "-2"],
                 "--scene-seed must be non-negative, got -2", id="patterns-dump --scene-seed"),
    pytest.param(["patterns-dump", "--size", "16", "--param-seed", "-2"],
                 "--param-seed must be non-negative, got -2", id="patterns-dump --param-seed"),
    pytest.param(["patterns-dump", "--size", "16", "--seed", "-2"],
                 "seed must be non-negative, got -2", id="patterns-dump --seed"),
    pytest.param(["grad-check", "--scene-seed", "-4"],
                 "--scene-seed must be non-negative, got -4", id="grad-check --scene-seed"),
    pytest.param(["grad-check", "--param-seed", "-4"],
                 "--param-seed must be non-negative, got -4", id="grad-check --param-seed"),
    pytest.param(["train", "--data", "{tmp}", "--out", "{tmp}/r", "--seed", "-3"],
                 "seed must be non-negative, got -3", id="train --seed"),
    pytest.param(["train", "--data", "{tmp}", "--out", "{tmp}/r", "--config", "{tmp}/seed.cfg"],
                 "seed must be non-negative, got -1", id="train config seed"),
])
def test_negative_seed_exit_1(tmp_path, capsys, argv, message):
    (tmp_path / "seed.cfg").write_text("seed = -1\n")
    assert main([a.format(tmp=tmp_path) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seed.cfg"]


class TestEval:
    def test_reduced_mode_table(self, workdir, capsys):
        out_csv = workdir["run"] / "eval.csv"
        code = main([
            "eval", "--checkpoint", str(workdir["ckpt"]),
            "--data", str(workdir["data"]), "--out", str(out_csv),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "scene,psnr,ssim,sam,ergas,scc"
        assert lines[1].startswith("scene_000,")
        assert lines[-1].startswith("mean,")
        per_scene = [list(map(float, ln.split(",")[1:])) for ln in lines[1:-1]]
        mean_row = list(map(float, lines[-1].split(",")[1:]))
        np.testing.assert_allclose(mean_row, np.mean(per_scene, axis=0), atol=1e-6)
        assert out_csv.read_bytes().startswith(b"scene,psnr,ssim,sam,ergas,scc\r\n")
        assert out_csv.read_text().splitlines() == lines

    def test_full_mode_header(self, workdir, tmp_path, capsys):
        out_csv = tmp_path / "eval.csv"
        code = main([
            "eval", "--checkpoint", str(workdir["ckpt"]),
            "--data", str(workdir["data"]), "--mode", "full", "--out", str(out_csv),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "scene,d_lambda,d_s,qnr"
        assert out_csv.read_bytes().startswith(b"scene,d_lambda,d_s,qnr\r\n")
        assert out_csv.read_text().splitlines() == lines
        dl, ds, qnr = map(float, lines[1].split(",")[1:])
        assert qnr == pytest.approx((1 - dl) * (1 - ds), abs=1e-5)

    def test_reduced_without_gt_exit_1(self, workdir, tmp_path, capsys):
        scene = synth_scene(0, 16)
        ScenePair(scene.pan, scene.lrms, None, scene.scale).save(tmp_path / "s0")
        code = main(["eval", "--checkpoint", str(workdir["ckpt"]), "--data", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 's0'} has no gt.hsif, required for reduced mode" in err

    def test_global_only_checkpoint_runs_global_only(self, workdir, tmp_path, capsys):
        cfg = TrainConfig(patch=4, stride=4, d=8, k=1, ablate="global-only")
        params = ModelParams.init(cfg, seed=3, zero_recon=False)
        ckpt = tmp_path / "global.hssn"
        save_checkpoint(ckpt, params, cfg)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(workdir["data"])]) == 0
        got = capsys.readouterr().out.strip().splitlines()[1:-1]

        def table(mode_cfg):
            rows = []
            for d in sorted(p for p in workdir["data"].iterdir() if p.is_dir()):
                scene = ScenePair.load(d, need_gt=True)
                rep = full_reference(forward(scene, params, mode_cfg).fused, scene.gt, scale=scene.scale)
                rows.append(",".join([d.name] + [f"{v:.6f}" for v in rep.as_row()]))
            return rows

        assert got == table(cfg)
        assert got != table(cfg.replace(ablate="full"))

    def test_truncated_checkpoint_exit_1(self, workdir, tmp_path):
        cut = tmp_path / "cut.hssn"
        cut.write_bytes(workdir["ckpt"].read_bytes()[:30])
        done = run_cli("eval", "--checkpoint", cut, "--data", workdir["data"])
        assert_cli_error(done, "truncated checkpoint")
        assert "byte offset 30" in done.stderr

    def test_corrupted_checkpoint_exit_1(self, workdir, tmp_path):
        blob = bytearray(workdir["ckpt"].read_bytes())
        blob[17] = 0xFF  # inside the first block's name
        bad = tmp_path / "bad.hssn"
        bad.write_bytes(bytes(blob))
        done = run_cli("eval", "--checkpoint", bad, "--data", workdir["data"])
        assert_cli_error(done, "checkpoint block name is not utf-8")

    def test_non_finite_checkpoint_exit_1(self, workdir, tmp_path):
        params, cfg = load_checkpoint(workdir["ckpt"])
        params.recon[1][0, 0] = np.nan  # the first sample of head 1
        bad = tmp_path / "nan.hssn"
        save_checkpoint(bad, params, cfg)
        blob = bad.read_bytes()
        payload = blob.index(b"recon") + len(b"recon") + 12  # after the three dims
        done = run_cli("eval", "--checkpoint", bad, "--data", workdir["data"])
        assert_cli_error(done, "non-finite sample in checkpoint block 'recon'")
        assert f"byte offset {payload + 4 * params.recon[0].size})" in done.stderr

    def test_scale_two_scenes(self, workdir, tmp_path, capsys):
        data = tmp_path / "s2"
        assert main(["synth", "--out", str(data), "--size", "16", "--scale", "2"]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(workdir["ckpt"]), "--data", str(data)]) == 0
        ergas = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[4])
        scene = ScenePair.load(data / "scene_000", need_gt=True)
        assert scene.lrms.data.shape == (8, 8, 4)
        params, cfg = load_checkpoint(workdir["ckpt"])
        fused = forward(scene, params, cfg).fused
        assert ergas == pytest.approx(full_reference(fused, scene.gt, scale=2).ergas, abs=1e-6)
        assert ergas != pytest.approx(full_reference(fused, scene.gt, scale=4).ergas, abs=1e-6)


class TestInfer:
    def test_outputs(self, workdir, tmp_path):
        out = tmp_path / "fused"
        code = main([
            "infer", "--checkpoint", str(workdir["ckpt"]),
            "--scene", str(workdir["data"] / "scene_000"), "--out", str(out),
        ])
        assert code == 0
        fused = read_hsif(out / "fused.hsif")
        assert fused.data.shape == (16, 16, 4)
        preview = read_ppm(out / "preview.ppm")
        assert preview.data.shape == (16, 16, 3)
        np.testing.assert_allclose(
            preview.data[:, :, 0], fused.data[:, :, 2], atol=0.5 / 255 + 1e-6
        )

    def test_missing_checkpoint_exit_1(self, workdir, tmp_path, capsys):
        code = main([
            "infer", "--checkpoint", str(tmp_path / "no.hssn"),
            "--scene", str(workdir["data"] / "scene_000"), "--out", str(tmp_path / "o"),
        ])
        assert code == 1


class TestPatternsDump:
    def test_stdout_format(self, capsys):
        code = main(["patterns-dump", "--size", "16", "--patch", "4",
                     "--stride", "4", "--d", "8", "--k", "1"])
        assert code == 0
        text = capsys.readouterr().out
        blocks = text.split("\n\n")
        rel_lines = blocks[0].strip().splitlines()
        for ln in rel_lines:
            r, src, dst, w = ln.split()
            assert r in {"1", "2", "3"}
            assert 0.0 <= float(w) <= 1.0
        pat_head = re.findall(r"pattern S=([\d,]+) nnz=(\d+)", text)
        assert [m for m, _ in pat_head] == ["1", "2", "3"]
        n_pan = sum(1 for ln in rel_lines if ln.startswith("1 "))
        assert n_pan == 16  # 16 patches, k=1 incoming pan edge each

    def test_config_seed_draws_the_parameters(self, capsys):
        def dump(*flags):
            assert main(["patterns-dump", "--size", "16", *flags]) == 0
            return capsys.readouterr().out

        seeded = dump("--seed", "5")
        assert seeded == dump("--param-seed", "5")
        assert seeded != dump("--seed", "0")
        # --param-seed wins over the config seed
        assert dump("--seed", "0", "--param-seed", "5") == seeded

    def test_k_flag_changes_edges(self, capsys):
        main(["patterns-dump", "--size", "16", "--patch", "4",
              "--stride", "4", "--d", "8", "--k", "2"])
        text = capsys.readouterr().out
        rel_lines = text.split("\n\n")[0].strip().splitlines()
        assert sum(1 for ln in rel_lines if ln.startswith("1 ")) == 32

    def test_checkpoint_dumps_its_own_graph(self, workdir, capsys):
        # the checkpoint's k = 1 and 4 px patches: 16 patches of a 16 px scene
        code = main(["patterns-dump", "--size", "16", "--checkpoint", str(workdir["ckpt"])])
        assert code == 0
        rel_lines = capsys.readouterr().out.split("\n\n")[0].strip().splitlines()
        assert sum(1 for ln in rel_lines if ln.startswith("1 ")) == 16

    @pytest.mark.parametrize("extra", [
        ["--k", "5"],
        ["--patch", "8", "--stride", "8"],
        ["--param-seed", "0"],
        ["--config", "any.cfg"],
    ])
    def test_checkpoint_refuses_model_flags(self, workdir, capsys, extra):
        code = main(["patterns-dump", "--size", "16", "--checkpoint", str(workdir["ckpt"]), *extra])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --checkpoint")
        assert extra[0] in captured.err

    def test_out_of_memory_exit_1(self, monkeypatch, capsys):
        # kNN's (m, m) cosine matrix is what runs out first on a large scene
        def refuse(feats):
            raise MemoryError(f"Unable to allocate the ({len(feats)}, {len(feats)}) cosines")

        monkeypatch.setattr(graph, "self_similarities", refuse)
        code = main(["patterns-dump", "--size", "16", "--patch", "4",
                     "--stride", "4", "--d", "8", "--k", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate the (16, 16) cosines\n"

    def test_out_file(self, tmp_path):
        out = tmp_path / "dump.txt"
        code = main(["patterns-dump", "--size", "16", "--patch", "4",
                     "--stride", "4", "--d", "8", "--k", "1", "--out", str(out)])
        assert code == 0
        assert "pattern S=" in out.read_text()


class TestGradCheck:
    def test_pass_exit_0(self, capsys):
        code = main(["grad-check", "--max-coords", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass" in out
        assert out.count("ok") >= 7
        # the error column lines up under its header, past the longest group
        header, *rows = out.splitlines()[:-1]
        assert {len(r) - len("  ok") for r in rows} == {len(header)}
        assert any(r.startswith("importance_w ") for r in rows)

    def test_impossible_tol_exit_2(self, capsys):
        code = main(["grad-check", "--max-coords", "2", "--tol", "1e-15"])
        assert code == 2
        assert "fail" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [
        ("--max-coords", "0"), ("--max-coords", "-3"), ("--eps", "0"), ("--eps", "nan"),
        ("--eps", "inf"), ("--tol", "nan"), ("--tol", "-0.5"),
    ])
    def test_bad_flags_exit_1(self, flag, value, capsys):
        assert main(["grad-check", flag, value]) == 1
        captured = capsys.readouterr()
        rule = "at least 1" if flag == "--max-coords" else "finite and positive"
        assert captured.err.startswith(f"error: {flag} must be {rule}, got ")
        assert captured.out == ""


class TestAblate:
    def test_table_and_exit_code_agree(self, capsys):
        code = main(["ablate", "--size", "16", "--iters", "2"])
        out = capsys.readouterr().out
        rows = re.findall(r"^(full|local-only|global-only)\s+([\d.]+)\s+([\d.]+)$", out, re.M)
        assert [m for m, _, _ in rows] == ["full", "local-only", "global-only"]
        l1 = {m: float(v) for m, v, _ in rows}
        ok = l1["full"] <= 1.05 * min(l1["local-only"], l1["global-only"])
        assert code == (0 if ok else 2)
        assert out.strip().splitlines()[-1].endswith("pass" if ok else "fail")

    @pytest.mark.parametrize("argv", [["--tail", "0"], ["--iters", "0"], ["--slack", "0.1"]])
    def test_bad_flags_exit_1(self, argv, capsys):
        assert main(["ablate", "--size", "16"] + argv) == 1
        assert "error:" in capsys.readouterr().err


class TestAnalyzePriors:
    def test_table_and_summary(self, tmp_path, capsys):
        out_csv = tmp_path / "p.csv"
        code = main(["analyze-priors", "--count", "2", "--size", "32", "--out", str(out_csv)])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "pair,mean_emd,mean_coefficient"
        assert sum(1 for ln in lines if ln.startswith("pan_vs_gt")) == 4
        assert "mean pan-vs-gt coefficient:" in out
        assert len(out_csv.read_text().strip().splitlines()) == 15

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_no_scenes_exit_1(self, count):
        done = run_cli("analyze-priors", "--count", count, "--size", "16")
        assert_cli_error(done, f"--count must be at least 1, got {count}")
        assert done.stdout == ""

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_no_bins_exit_1(self, bins):
        done = run_cli("analyze-priors", "--bins", bins, "--size", "16")
        assert_cli_error(done, f"--bins must be at least 1, got {bins}")
        assert done.stdout == ""


class TestBench:
    def test_small_run(self, capsys):
        code = main(["bench", "--sizes", "40,80", "--d", "8"])
        assert code == 0
        out = capsys.readouterr().out
        m = re.search(r"fitted exponent global:\s+(-?[\d.]+)", out)
        assert m is not None and np.isfinite(float(m.group(1)))

    def test_bench_scaling_api(self):
        rows, exps = bench_scaling(sizes=(40, 80), d=8)
        assert [r["n"] for r in rows] == [40, 80]
        assert all(r["t_patterns"] > 0 and r["t_global"] > 0 for r in rows)
        assert set(exps) == {"patterns", "global"}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--sizes", "0"], "--sizes must each be at least 2, got 0"),
            (["--sizes", "1,40"], "--sizes must each be at least 2, got 1,40"),
            (["--sizes", "40"], "--sizes needs two distinct sizes to fit an exponent, got 40"),
            (["--sizes", "40,40"], "--sizes needs two distinct sizes to fit an exponent, got 40,40"),
            (["--sizes", "40,80", "--d", "0"], "--d must be at least 1, got 0"),
            (["--sizes", "abc"], "--sizes must be comma-separated integers, got abc"),
        ],
    )
    def test_bad_flags_exit_1(self, argv, message):
        done = run_cli("bench", *argv)
        assert_cli_error(done, message)
        assert done.stdout == ""


class TestParsing:
    def test_missing_required_flag_exit_1(self, capsys):
        assert main(["synth"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_exit_1(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_console_script_installed(self, tmp_path):
        proc = run_cli("synth", "--out", tmp_path / "s", "--size", "16")
        assert proc.returncode == 0
        assert (tmp_path / "s" / "scene_000" / "pan.hsif").exists()
