"""Make a workload's inputs and references and print them as JSON.

Usage: python3 bench/prepare.py WORKLOAD SEED SRC_DIR

run.py calls this in a child process, so the crosscheck screening
integrations and the oracle references of the catalog workload do not
count in the harness's peak memory.
"""

import json
import sys


def main():
    name, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    json.dump(WORKLOADS[name].prepare(seed), sys.stdout)


if __name__ == "__main__":
    main()
