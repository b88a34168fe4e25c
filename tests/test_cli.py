"""End-to-end command-line tests, run in-process through main().

A session-scoped fixture synthesises a tiny dataset and trains a 12-iteration
checkpoint once; the eval/infer tests reuse it.
"""

import re
import subprocess
import sys

import numpy as np
import pytest

from graphpan.aggregation import ModelParams, forward
from graphpan.cli import bench_scaling, main, merge_config, parse_config_file
from graphpan.config import TrainConfig
from graphpan.imaging import ScenePair, read_hsif, read_ppm, synth_scene
from graphpan.metrics import full_reference
from graphpan.training import save_checkpoint

FAST_TRAIN = [
    "--patch", "4", "--stride", "4", "--d", "8", "--layers", "1",
    "--k", "1", "--iters", "12", "--batch", "1",
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


class TestTrain:
    def test_outputs_and_progress(self, workdir, capsys):
        run = workdir["run"]
        assert (run / "checkpoint_final.hssn").exists()
        lines = (run / "log.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,l1,lcl,total,lr"
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

    def test_divergence_exit_2(self, tmp_path, capsys):
        data = tmp_path / "d"
        main(["synth", "--out", str(data), "--size", "16"])
        with np.errstate(all="ignore"):
            code = main(
                ["train", "--data", str(data), "--out", str(tmp_path / "r"),
                 "--precision", "standard", "--lr0", "1e20", "--iters", "20"]
                + FAST_TRAIN[:12]
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

    def test_invalid_value_exit_1(self, tmp_path, capsys):
        data = tmp_path / "d"
        main(["synth", "--out", str(data), "--size", "16"])
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "r"), "--gamma", "-1"])
        assert code == 1


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
        assert out_csv.read_text().strip().splitlines()[0] == "scene,psnr,ssim,sam,ergas,scc"

    def test_full_mode_header(self, workdir, capsys):
        code = main([
            "eval", "--checkpoint", str(workdir["ckpt"]),
            "--data", str(workdir["data"]), "--mode", "full",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "scene,d_lambda,d_s,qnr"
        dl, ds, qnr = map(float, lines[1].split(",")[1:])
        assert qnr == pytest.approx((1 - dl) * (1 - ds), abs=1e-5)

    def test_reduced_without_gt_exit_1(self, workdir, tmp_path, capsys):
        scene = synth_scene(0, 16)
        ScenePair(scene.pan, scene.lrms, None, scene.scale).save(tmp_path / "s0")
        code = main(["eval", "--checkpoint", str(workdir["ckpt"]), "--data", str(tmp_path)])
        assert code == 1

    def test_global_only_checkpoint_runs_global_only(self, workdir, tmp_path, capsys):
        cfg = TrainConfig(patch=4, stride=4, d=8, layers=1, k=1, ablate="global-only")
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
        done = subprocess.run(
            [sys.executable, "-m", "graphpan.cli", "eval", "--checkpoint", str(cut),
             "--data", str(workdir["data"])],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: truncated checkpoint")
        assert "byte offset 30" in done.stderr


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

    def test_k_flag_changes_edges(self, capsys):
        main(["patterns-dump", "--size", "16", "--patch", "4",
              "--stride", "4", "--d", "8", "--k", "2"])
        text = capsys.readouterr().out
        rel_lines = text.split("\n\n")[0].strip().splitlines()
        assert sum(1 for ln in rel_lines if ln.startswith("1 ")) == 32

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

    def test_impossible_tol_exit_2(self, capsys):
        code = main(["grad-check", "--max-coords", "2", "--tol", "1e-15"])
        assert code == 2
        assert "fail" in capsys.readouterr().out


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


class TestParsing:
    def test_missing_required_flag_exit_1(self, capsys):
        assert main(["synth"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_exit_1(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_console_script_installed(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "graphpan.cli", "synth", "--out",
             str(tmp_path / "s"), "--size", "16"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "s" / "scene_000" / "pan.hsif").exists()
