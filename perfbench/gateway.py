"""A cluster gateway in front of one already-running ``repro serve`` worker.

The traced ``cached`` run measures the gateway hop with this launcher
instead of ``repro cluster serve``: its worker pool sends the workers'
stdout and stderr to /dev/null, so the worker access log that the
gateway-minus-worker join needs would be lost.  This process runs the same
:class:`repro.cluster.ClusterGateway` (result cache off, access log on)::

    python3 perfbench/gateway.py WORKER_URL DATASET_FINGERPRINT
"""

from __future__ import annotations

import logging
import signal
import sys

from repro.cluster import ClusterGateway
from repro.cluster.gateway import gateway_access_logger
from repro.config import ClusterConfig

READY = "Gateway serving expansion API v1 on "


def main(worker_url: str, fingerprint: str) -> None:
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(message)s"))
    gateway_access_logger.addHandler(handler)
    gateway_access_logger.setLevel(logging.INFO)
    config = ClusterConfig(
        num_workers=1, gateway_host="127.0.0.1", gateway_port=0, gateway_access_log=True
    )
    gateway = ClusterGateway([("worker-0", worker_url)], config=config, fingerprint=fingerprint)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"{READY}{gateway.url}", flush=True)
    try:
        gateway.serve_forever()
    finally:
        gateway.shutdown()


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
