"""The stdin serve worker and the request handler the network tier
(:mod:`repro.serve.server`) reuses for single-model applies.

The original worker reads one JSON request per line on stdin and
writes one JSON response per line on stdout — the lowest-common-
denominator protocol every language and shell can speak, trivially
supervised behind a socket server or a container.  Requests:

``{"op": "apply", "value": "9th St"}``
    Standardize one value; responds ``{"ok": true, "value": ...}``.

``{"op": "apply", "values": [...]}``
    Standardize a batch; responds ``{"ok": true, "values": [...],
    "changed": <count>}``.  Both forms share the engine's intern memo.

``{"op": "stats"}``
    Engine counters plus model identity.

``{"op": "ping"}``
    Liveness probe; responds ``{"ok": true, "pong": true}``.

``{"op": "shutdown"}``
    Acknowledge and exit the loop.

Malformed lines and unknown ops produce ``{"ok": false, "error": ...}``
and the worker keeps serving — a poison request must not take the
worker down.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, IO, Optional

from .engine import ApplyEngine


def handle_request(engine: ApplyEngine, request: Dict) -> Dict:
    """Answer one already-parsed request; never raises."""
    op = request.get("op", "apply")
    if op == "ping":
        return {"ok": True, "pong": True}
    if op == "stats":
        return {
            "ok": True,
            "model": engine.model.name,
            "column": engine.model.column,
            "groups": engine.model.groups_confirmed,
            "stats": engine.stats().as_dict(),
        }
    if op == "shutdown":
        return {"ok": True, "bye": True}
    if op == "apply":
        if "values" in request:
            values = request["values"]
            if not isinstance(values, list) or any(
                not isinstance(v, str) for v in values
            ):
                return {"ok": False, "error": "values must be a string list"}
            outputs = engine.apply_values(values)
            changed = sum(1 for v, o in zip(values, outputs) if v != o)
            return {"ok": True, "values": outputs, "changed": changed}
        if "value" in request:
            value = request["value"]
            if not isinstance(value, str):
                return {"ok": False, "error": "value must be a string"}
            return {"ok": True, "value": engine.transform(value)}
        return {"ok": False, "error": "apply needs 'value' or 'values'"}
    return {"ok": False, "error": f"unknown op: {op!r}"}


def serve_forever(
    engine: ApplyEngine,
    in_stream: Optional[IO[str]] = None,
    out_stream: Optional[IO[str]] = None,
) -> int:
    """Serve requests until EOF or a shutdown op; returns request count.

    Streams default to stdin/stdout; they are injectable so tests (and
    embedders) can drive the worker with in-memory buffers.
    """
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout
    served = 0
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        served += 1
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            response = {"ok": False, "error": f"bad request: {exc}"}
            request = None
        else:
            response = handle_request(engine, request)
        out_stream.write(json.dumps(response, ensure_ascii=False) + "\n")
        out_stream.flush()
        if request is not None and request.get("op") == "shutdown":
            break
    return served
