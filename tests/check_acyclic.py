"""Check that CLI commands leave no reference cycles behind.

    PYTHONPATH=src python tests/check_acyclic.py DOC

`cli.main` pauses the cycle collector for each command, which frees
nothing late only while commands build acyclic data. This runs
`timestamps --clock wb`, `check-clock --clock vector`, `check-order`
and `render` on the diagram document DOC in this process, with the
collector off and their output discarded, and exits 1 unless each
exits 0 and a collection after each finds nothing to free.
"""

import contextlib
import gc
import os
import sys

from causalweft.cli import main

COMMANDS = (
    ("timestamps", "--clock", "wb"),
    ("check-clock", "--clock", "vector"),
    ("check-order",),
    ("render",),
)


def check(doc: str) -> bool:
    gc.disable()
    gc.collect()
    ok = True
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for name, *flags in COMMANDS:
            with contextlib.redirect_stdout(sink):
                code = main([name, doc, *flags])
            freed = gc.collect()
            print(f"{name}: exit {code}, {freed} objects in reference cycles")
            ok = ok and code == 0 and freed == 0
    return ok


if __name__ == "__main__":
    sys.exit(not check(sys.argv[1]))
