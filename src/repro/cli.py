"""What every ``python -m repro.<tool>`` entry point shares."""

from __future__ import annotations

import os
import sys
from typing import Callable, NoReturn


def run_main(main: Callable[[], int]) -> NoReturn:
    """Exit with ``main()``'s status.

    A reader that closes the pipe early (``... | head -1``) ends the run
    with status 1 and no ``BrokenPipeError`` traceback.  This is the
    Python documentation's SIGPIPE recipe: flush inside the ``try`` so a
    late write fails here, then point stdout at ``os.devnull`` so the
    interpreter's own flush at exit cannot fail again.
    """
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)
