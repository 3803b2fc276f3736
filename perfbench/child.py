"""Run one function of ``workloads`` in this process and pickle its reply.

    python3 perfbench/child.py <function> <reply-file> <json-list-of-arguments>

The reply is ``("done", value)``, or ``("aborted", reason)`` when an operation
could not run at all. ``run.py`` starts these one at a time and waits for
each, so the load comes from one process at any moment.
"""

from __future__ import annotations

import json
import pickle
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402


def main(argv) -> int:
    name, reply, args = argv[0], Path(argv[1]), json.loads(argv[2])
    try:
        message = ("done", getattr(workloads, name)(*args))
    except workloads.OperationFailed as err:
        message = ("aborted", str(err))
    reply.write_bytes(pickle.dumps(message))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
