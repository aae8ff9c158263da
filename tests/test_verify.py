"""``sisid verify RUN_DIR``: a run directory re-checked from its manifest.

Each check is shown to pass on real runs and to fail, with one line naming
the file or block, on a directory edited after its run.
"""

import json
import shutil

import pytest

from sisid import cli
from sisid.config import bundled_config_path

BUNDLED = ("fig1", "fig2", "fig3_noisefree", "fig3_noisy")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each bundled config and one sweep variant, written once by the console commands."""
    root = tmp_path_factory.mktemp("runs")
    for name in BUNDLED:  # fig3_noisefree exits 1: EF-RLS fails at step 570
        assert cli.main(["run", name, "--outputs", str(root / name)]) == (
            1 if name == "fig3_noisefree" else 0
        )
    cfg = root / "sweep.cfg"
    text = bundled_config_path("fig3_noisy").read_text()
    cfg.write_text(text.replace("outputs = runs/fig3_noisy", f"outputs = {root / 'sweep'}"))
    assert cli.main(["sweep", str(cfg), "--param", "grls.alpha", "--values", "0.9"]) == 0
    return root


@pytest.fixture
def copy(runs, tmp_path):
    """A fresh copy of fig3_noisefree's run, which has three files, an error and a set."""
    return shutil.copytree(runs / "fig3_noisefree", tmp_path / "run")


def verify(run_dir, capsys):
    """The exit status of ``sisid verify run_dir`` and its stdout lines."""
    status = cli.main(["verify", str(run_dir)])
    return status, capsys.readouterr().out.splitlines()


def edit_manifest(run_dir, edit):
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest, indent=2) + "\n")


@pytest.mark.parametrize("name", [*BUNDLED, "sweep/grls_alpha=0.9"])
def test_a_run_verifies(runs, capsys, name):
    expected = [f"ok: {runs / name} matches its manifest and a rerun"]
    assert verify(runs / name, capsys) == (0, expected)


def test_a_byte_appended_to_a_csv(copy, capsys):
    with open(copy / "greedy.csv", "ab") as fh:
        fh.write(b"\n")
    status, lines = verify(copy, capsys)
    assert status == 1
    assert len(lines) == 1 and lines[0].startswith("greedy.csv: sha256 ")


def test_an_edited_digest(copy, capsys):
    def edit(manifest):
        manifest["files"][0]["sha256"] = "0" * 64

    edit_manifest(copy, edit)
    status, lines = verify(copy, capsys)
    assert status == 1
    # the digest no longer matches the bytes on disk, nor the rerun's files block
    assert [line.split(":")[0] for line in lines] == ["metrics.csv", "files"]
    assert f"{'0' * 64} in the manifest" in lines[0]


def test_an_unlisted_csv(copy, capsys):
    (copy / "extra.csv").write_text("step\r\n")
    status, lines = verify(copy, capsys)
    assert status == 1
    assert len(lines) == 1 and lines[0].startswith("extra.csv: sha256 ")
    assert lines[0].endswith(", none in the manifest")


def test_a_deleted_csv(copy, capsys):
    (copy / "trajectory.csv").unlink()
    status, lines = verify(copy, capsys)
    assert status == 1
    assert len(lines) == 1 and lines[0].startswith("trajectory.csv: sha256 none on disk, ")


@pytest.mark.parametrize(
    "key,edit",
    [
        ("settled", lambda m: m["settled"].update(trajectory=None)),
        ("errors", lambda m: m["errors"][0].update(step=571)),
        ("errors", lambda m: m["errors"].clear()),
        ("status", lambda m: m.update(status=0)),
        ("excitation", lambda m: m["excitation"]["indices"].pop()),
    ],
)
def test_an_edited_block(copy, capsys, key, edit):
    edit_manifest(copy, edit)
    status, lines = verify(copy, capsys)
    assert status == 1
    assert len(lines) == 1 and lines[0].startswith(f"{key}: ")


def test_timings_and_the_environment_are_not_compared(copy, capsys):
    def edit(manifest):
        manifest["timings"]["simulate_s"] = 1e9
        manifest["wall_time_s"] = 1e9
        manifest["environment"]["numpy"] = "0.0.0"

    edit_manifest(copy, edit)
    assert verify(copy, capsys)[0] == 0


def test_a_missing_manifest_exits_2(copy, capsys):
    (copy / "manifest.json").unlink()
    assert cli.main(["verify", str(copy)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "manifest.json" in err


@pytest.mark.parametrize(
    "text,message",
    [
        ("not json", "JSONDecodeError: "),
        ("[]", "TypeError: "),
        ('{"config": {}}', "ConfigError: beta: missing required key"),
    ],
)
def test_an_unreadable_manifest_exits_2(copy, capsys, text, message):
    (copy / "manifest.json").write_text(text)
    assert cli.main(["verify", str(copy)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {copy / 'manifest.json'}: {message}")
    assert err.count("\n") == 1


def test_an_echo_that_does_not_parse_back_exits_2(copy, capsys):
    edit_manifest(copy, lambda m: m["config"].update(x0="np.float64(0.01)"))
    assert cli.main(["verify", str(copy)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {copy / 'manifest.json'}: ConfigError: x0: ")
    assert "'np.float64(0.01)'" in err
