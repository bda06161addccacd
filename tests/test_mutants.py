"""The mutation battery (`tests/mutants/run.py`) cannot go stale: every
mutant's replacement still matches its file exactly once, and every test it
names still exists. No mutant runs here."""

import os
import subprocess
import sys

from mutants.run import MUTANTS, ROOT, matches


def test_every_mutant_replacement_matches_its_file_once():
    assert {m.name: matches(m) for m in MUTANTS if matches(m) != 1} == {}
    assert all(m.path.startswith("src/srtg/") for m in MUTANTS)
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def test_every_node_id_a_mutant_names_exists():
    nodes = {n for m in MUTANTS for n in m.nodes}
    files = sorted({n.split("::")[0] for n in nodes})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True)
    assert nodes - set(run.stdout.splitlines()) == set()
