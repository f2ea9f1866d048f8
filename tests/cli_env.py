"""Environment and memory cap for running this checkout's code in a
subprocess."""

import os
import resource
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli_env():
    """The environment with the source tree first on PYTHONPATH, so a CLI
    subprocess imports this checkout's topolab."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)


def cap_memory_at_1gib():
    """A ``preexec_fn`` that caps the subprocess's address space at 1 GiB."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
