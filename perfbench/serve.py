"""Child process for ``remote_enum``: one primary or one read replica.

    python3 perfbench/serve.py primary <data_dir>
    python3 perfbench/serve.py replica <primary_host> <primary_port> <graph>

Prints ``<host> <port>`` on one line once it serves, then serves until its
standard input closes, shuts down and exits 0.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))


def main(argv) -> int:
    role = argv[0]
    if role == "primary":
        from repro.server import GraphServer

        node = GraphServer(data_dir=argv[1], node="primary")
        host, port = node.start()
    elif role == "replica":
        from repro.replication import ReplicaServer

        node = ReplicaServer(argv[1], int(argv[2]), graphs=[argv[3]], node="replica")
        host, port = node.start()
    else:
        raise SystemExit(f"unknown role {role!r}")
    try:
        print(host, port, flush=True)
        sys.stdin.read()  # the parent closes our stdin to stop us
    finally:
        node.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
