"""Environment for running this checkout's command-line interface in a
subprocess."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli_env():
    """The environment with the source tree first on PYTHONPATH, so a CLI
    subprocess imports this checkout's topolab."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
