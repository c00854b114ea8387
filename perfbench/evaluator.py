"""External evaluator for the benchmark: the clx-like surface behind the
newline-delimited JSON protocol of `--evaluator external:<command>`.

    python3 perfbench/evaluator.py <space.json>

Answers every eval request in order; exits on "bye" or end of input.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from surface import ClxSurface, Layout  # noqa: E402


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        surface = ClxSurface(Layout(json.load(fh)))
    out = sys.stdout
    hello = json.loads(sys.stdin.readline() or "{}")
    if hello.get("type") != "hello":
        return 1
    out.write('{"type":"ready"}\n')
    out.flush()
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["type"] == "bye":
            break
        top1, latency = surface.evaluate(msg["genes"])
        out.write(
            json.dumps(
                {"type": "result", "id": msg["id"],
                 "objectives": {"top1": top1, "latency_ms": latency}},
                separators=(",", ":"),
            )
            + "\n"
        )
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
