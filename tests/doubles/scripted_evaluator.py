"""Scripted external-evaluator test double.

Speaks the newline-delimited JSON protocol on stdin/stdout with a behavior
chosen by argv, so protocol tests can exercise the full error taxonomy:

  echo                 fixed objectives for every request
  genes-sum            objectives derived from the genes (deterministic)
  shuffle              answer each consecutive pair of requests in reverse order
  error-even           {"type":"error"} for even ids, results for odd
  crash-after=N        exit(1) after answering N requests
  bad-handshake        reply {"type":"nope"} to hello
  no-handshake         exit immediately
  mute                 read hello and answer nothing; exit at the next line
  malformed            emit one non-JSON line instead of the first result
  reply=LINE           answer every request with the raw line LINE
  omit-last            results missing the last declared objective
  stall                accept requests but never answer them
  stall-after=N        answer the first N requests as genes-sum does, then
                       accept requests but never answer them
  bad-value-after=N:V  answer the first N requests as genes-sum does, then
                       send the JSON text V (say "fast", null, NaN or true)
                       as the value of the last declared objective
  record=PATH          append every received raw line to PATH (composable,
                       pass as the second argument)
"""

import json
import sys


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else "echo"
    record_path = None
    for arg in sys.argv[2:]:
        if arg.startswith("record="):
            record_path = arg.split("=", 1)[1]

    crash_after = stall_after = bad_after = reply = None
    if mode.startswith("crash-after="):
        crash_after = int(mode.split("=", 1)[1])
        mode = "crash-after"
    if mode.startswith("stall-after="):
        stall_after = int(mode.split("=", 1)[1])
        mode = "genes-sum"
    if mode.startswith("reply="):
        reply = mode.split("=", 1)[1]
    if mode.startswith("bad-value-after="):
        count, _, text = mode.split("=", 1)[1].partition(":")
        bad_after, bad_value = int(count), json.loads(text)
        mode = "genes-sum"

    def record(line: str) -> None:
        if record_path:
            with open(record_path, "a", encoding="utf-8") as fh:
                fh.write(line)

    def send(obj) -> None:
        sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
        sys.stdout.flush()

    if mode == "no-handshake":
        return 1

    hello = sys.stdin.readline()
    record(hello)
    if mode == "bad-handshake":
        send({"type": "nope"})
        return 0
    if mode == "mute":
        sys.stdin.readline()
        return 0
    send({"type": "ready"})

    objectives = json.loads(hello).get("objectives", [])
    answered = 0
    pending = []
    while True:
        line = sys.stdin.readline()
        if not line:
            break
        record(line)
        msg = json.loads(line)
        if msg["type"] == "bye":
            break
        if msg["type"] != "eval":
            continue
        if mode == "stall" or (stall_after is not None and answered >= stall_after):
            continue
        if mode == "shuffle":
            pending.append(msg)
            if len(pending) == 2:
                for queued in reversed(pending):
                    genes = queued.get("genes", [])
                    values = {
                        name: float(sum(genes) + k)
                        for k, name in enumerate(objectives)
                    }
                    send({"type": "result", "id": queued["id"], "objectives": values})
                pending.clear()
            continue
        if reply is not None:
            sys.stdout.write(reply + "\n")
            sys.stdout.flush()
            continue
        if mode == "malformed" and answered == 0:
            sys.stdout.write("this is not json\n")
            sys.stdout.flush()
            answered += 1
            continue
        if mode == "error-even" and msg["id"] % 2 == 0:
            send({"type": "error", "id": msg["id"], "message": f"boom {msg['id']}"})
            continue
        genes = msg.get("genes", [])
        if mode == "genes-sum":
            values = {name: float(sum(genes) + k) for k, name in enumerate(objectives)}
        else:
            values = {name: float(k + 1) for k, name in enumerate(objectives)}
        if mode == "omit-last" and objectives:
            values.pop(objectives[-1])
        if bad_after is not None and answered >= bad_after:
            values[objectives[-1]] = bad_value
        send({"type": "result", "id": msg["id"], "objectives": values})
        answered += 1
        if crash_after is not None and answered >= crash_after:
            return 1
    for msg in pending:
        genes = msg.get("genes", [])
        values = {name: float(sum(genes) + k) for k, name in enumerate(objectives)}
        send({"type": "result", "id": msg["id"], "objectives": values})
    return 0


if __name__ == "__main__":
    sys.exit(main())
