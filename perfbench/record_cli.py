"""Record the expected stdout digest of every cli-cold command.

    python3 perfbench/record_cli.py

Writes perfbench/inputs/cli_expected.json. The benchmark counts a command as
failed when its stdout is not byte-identical to what was recorded here, so
re-record only when a change of CLI output is intended.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import run
import workloads


def main() -> int:
    digests = {}
    for cmd in workloads.CLI_COMMANDS:
        argv = [sys.executable, "-m", "polyharm.cli", *workloads.cli_argv(run.ROOT, cmd)]
        proc = subprocess.run(argv, cwd=run.ROOT, env=run.child_env(), capture_output=True)
        if proc.returncode != 0 or proc.stderr:
            print(f"{cmd['name']}: exit {proc.returncode}\n{proc.stderr.decode()}", file=sys.stderr)
            return 1
        digests[cmd["name"]] = hashlib.sha256(proc.stdout).hexdigest()
    run.EXPECTED_CLI.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {run.EXPECTED_CLI.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
