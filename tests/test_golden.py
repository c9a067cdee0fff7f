"""Golden digests of the default run.

`test_c6_determinism` compares two runs of one build; these digests hold the
same artifacts fixed across changes to the code. A refactor must leave them
unchanged. A change that alters them on purpose updates the digest here and
says in CHANGES.md which behaviour changed and why.
"""

import hashlib

from wfopt.config import RunConfig
from wfopt.driver import execute_run

# sha256 of each artifact of `execute_run(RunConfig())`, seed 42
GOLDEN = {
    "runlog.ndjson": "5e2a8950eacfebfcea9f007d1454127ad400a7478b4ef0eb552cee12e82fd3a4",
    "best_workflow.json": "ec9b47a7ed27fa620258024356ac8b890381732a43663fcf3d89ba5fffee25cf",
    "motifs.json": "90269e4da93f8dbf03ad815cde2e8db9d9c4b7ba943fb0fccb242873be8d0798",
    "summary.json": "2c596b376e0ef279ec6fd34df9cb6ca05a66a2f58a7717c0cca3d48d4c8f1c0b",
}


def test_default_run_artifacts_match_golden_digests(tmp_path):
    config = RunConfig()
    assert config.seed == 42
    execute_run(config, tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert digests == GOLDEN
