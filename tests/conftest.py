import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PROGRAMS = REPO / "programs"


def run_cli(*args, stdin=None, timeout=60, code=None):
    """Run the CLI in a subprocess, or the Python `code` with the CLI's
    arguments in sys.argv; returns CompletedProcess with text I/O."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *(("-c", code) if code else ("-m", "problisp")),
         *[str(a) for a in args]],
        input=stdin, capture_output=True, text=True, timeout=timeout, env=env,
        cwd=REPO)


@pytest.fixture
def session():
    from problisp import Session

    return Session(seed=1234)


@pytest.fixture
def prelude_session():
    from problisp import Session, prelude_path

    s = Session(seed=1234)
    s.load_file(prelude_path())
    return s
