"""Compare the outputs of two benchmark runs request by request.

Each run record (perfbench/out/run-<workload>-seed<n>-trace<k>.json) holds,
per request, the exit code and a SHA-256 digest of the exit code and stdout.
Runs of the same workload and seed send the same requests in the same
order, so two commits produced byte-identical output if the digests agree on
every request both runs completed:

    python3 perfbench/compare_digests.py parent-record.json change-record.json

Exit code 0 when they agree, 1 when some request differs.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    if (a["workload"]["name"], a["seed"]) != (b["workload"]["name"], b["seed"]):
        print("the records come from different workloads or seeds", file=sys.stderr)
        return 2
    common = min(len(a["per_request"]), len(b["per_request"]))
    differ = [
        (ra["index"], ra["template"])
        for ra, rb in zip(a["per_request"], b["per_request"])
        if (ra["template"], ra["code"], ra["digest"]) != (rb["template"], rb["code"], rb["digest"])
    ]
    for index, template in differ:
        print(f"request {index} ({template}): output differs")
    print(f"{common - len(differ)} of {common} common requests identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
