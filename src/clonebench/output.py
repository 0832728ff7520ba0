"""What a command prints and writes: its documents as `json.dumps(doc,
indent=2)` text, printed to stdout and, with --out, written to files."""

from __future__ import annotations

import json
import os
import sys

_encode_str = json.encoder.encode_basestring_ascii
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


class UsageError(Exception):
    pass


def _dumps(doc, indent: str = "\n") -> str:
    """The text of `json.dumps(doc, indent=2)`, built without the generator
    encoder that the indent selects. `indent` is the newline plus the
    indentation of the level `doc` sits at. Any value but a str-keyed dict, a
    list, a tuple or a plain finite scalar goes to `json.dumps` itself, whose
    scalars are the same bytes."""
    kind = type(doc)
    if kind is str:
        return _encode_str(doc)
    if kind is float and doc - doc == 0.0:
        return float.__repr__(doc)
    if kind is int:
        return int.__repr__(doc)
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    inner = indent + "  "
    if kind is dict:
        if not doc:
            return "{}"
        try:
            items = [_encode_str(key) + ": " + _dumps(value, inner) for key, value in doc.items()]
        except TypeError:  # a key that is no str, which json.dumps converts
            return json.dumps(doc, indent=2).replace("\n", indent)
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not doc:
            return "[]"
        return "[" + inner + ("," + inner).join([_dumps(value, inner) for value in doc]) + indent + "]"
    # json.dumps escapes a newline inside a string, so each "\n" it writes
    # starts a line, which then gets this level's indentation
    return json.dumps(doc, indent=2).replace("\n", indent)


def _check_out(out: str, *suffixes: str) -> None:
    """Refuse, before any work, an --out that names no file or a directory,
    whose directory is missing or not writable, or next to which the manifest
    or a side output out + suffix would be written over a directory."""
    parent = os.path.dirname(out) or "."
    if not os.path.basename(out) or os.path.isdir(out):
        raise UsageError(f"--out {out!r} is not a file name")
    if not os.access(parent, os.W_OK):
        raise UsageError(f"cannot write {out!r}: {parent!r} is missing or not writable")
    for path in (out + ".manifest.json", *(out + suffix for suffix in suffixes)):
        if os.path.isdir(path):
            raise UsageError(f"cannot write {path!r}: it is a directory")


def _write_outputs(
    out: str | None, text: str, manifest: dict, side_outputs: dict[str, str] | None = None
) -> None:
    """Print the primary artifact; if --out was given, also write it, the run
    manifest next to it, and then the side_outputs, given as {path: text}. The
    manifest lists the artifact, then the side outputs. A file that cannot be
    written is a usage error."""
    text = text if text.endswith("\n") else text + "\n"
    sys.stdout.write(text)
    if out is None:
        return
    side_outputs = side_outputs or {}
    manifest = dict(manifest, outputs=[out, *side_outputs])
    files = {out: text, out + ".manifest.json": _dumps(manifest) + "\n", **side_outputs}
    for path, body in files.items():
        try:
            fd = os.open(path, _WRITE_FLAGS, 0o666)
            try:
                data = memoryview(body.encode())
                while data:
                    data = data[os.write(fd, data) :]
            finally:
                os.close(fd)
        except OSError as exc:
            raise UsageError(f"cannot write {path!r}: {exc}")
