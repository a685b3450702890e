"""Golden outputs: the exact bytes of every file the commands write.

Every command runs from a scratch directory with relative paths, so the
``dataset``/``manifest``/``scores`` metadata the files record stays the
same wherever the test runs.  The expected bytes live under
``tests/golden/``; after an intended format change, regenerate them with

    PYTHONPATH=src python tests/test_golden_outputs.py

and name every byte that moved in the change description.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from separability.cli import main

from synth import write_fixture_dataset

GOLDEN = Path(__file__).parent / "golden"

SCORES = "out/analyze/scores.csv"
TABLE = ["--scores", SCORES, "--metric", "si_sdr", "--instrument", "bass"]

# (argv, expected exit code); every output lands under out/.
COMMANDS = [
    (["analyze", "--dataset", "ds", "--out", "out/analyze", "--fast-metrics"], 0),
    (["rank", *TABLE, "--out", "out/rank.json"], 0),
    (["select", *TABLE, "--criterion", "top", "--fraction", "0.5",
      "--out", "out/select_top.json"], 0),
    (["select", *TABLE, "--criterion", "random", "--fraction", "0.5", "--seed", "0",
      "--out", "out/select_random.json"], 0),
    (["correlate", SCORES, "out/analyze/scores.json", "--out", "out/correlate"], 0),
    (["mute-plan", "--dataset", "ds", "--instrument", "bass", "--ratios", "0,0.5,1",
      "--seed", "0", "--out", "out/mute"], 0),
]


def _tree(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def produce(workdir: Path) -> dict[str, bytes]:
    """Run every command in ``workdir``; return the files under out/."""
    write_fixture_dataset(workdir / "ds", n_songs=3, seed=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        for argv, expected in COMMANDS:
            code = main(argv)
            assert code == expected, f"{argv[0]} exited {code}, expected {expected}"
    return _tree(workdir / "out")


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


def test_every_golden_file_is_written_and_nothing_else(produced):
    assert sorted(produced) == sorted(_tree(GOLDEN))


@pytest.mark.parametrize("name", sorted(_tree(GOLDEN)))
def test_file_matches_golden_bytes(produced, name):
    assert produced.get(name) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = produce(Path(tmp))
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name, data in files.items():
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    print(f"wrote {len(files)} golden files to {GOLDEN}", file=sys.stderr)
