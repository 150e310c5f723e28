"""The output emitters every heavylab output goes through.

Both open with a header carrying the package version, the resolved config
and its hash.  `jsonl_text` writes a JSON header line, then one JSON record
per line, with non-finite floats as the strings "inf", "-inf" and "nan";
`csv_text` writes ``# heavylab <version> config_hash=<hash> k=v ...``, the
column line, then one line per row.  The module imports the standard
library only, so the CLI can load it without numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
import shlex

VERSION = "0.1.0"


def _finite_json(obj):
    """obj with each +inf, -inf and NaN float replaced by "inf", "-inf" or "nan".

    json.dumps would write them as Infinity and NaN, which are not JSON.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def _json_line(obj) -> str:
    return json.dumps(_finite_json(obj), sort_keys=True, separators=(",", ":"), default=str)


def config_hash(conf: dict) -> str:
    """First 12 hex digits of the SHA-256 of the compact, key-sorted JSON of conf."""
    return hashlib.sha256(_json_line(conf).encode()).hexdigest()[:12]


def jsonl_text(conf: dict, records) -> str:
    """JSON-lines text: a header line, then one record per line.

    The header carries the package version, conf and its hash.
    """
    head = {"header": True, "version": VERSION, "config": conf, "config_hash": config_hash(conf)}
    return "\n".join([_json_line(head), *map(_json_line, records)]) + "\n"


def _header_value(v) -> str:
    """A header value that `shlex.split` returns whole.

    Tuples are written without spaces, ``(0.2,0.5,1.0)``; strings holding
    whitespace, quotes or backslashes are shlex-quoted; anything else is
    ``str(v)``.
    """
    if isinstance(v, tuple):
        inner = ",".join(map(_header_value, v))
        return f"({inner},)" if len(v) == 1 else f"({inner})"
    text = str(v)
    if isinstance(v, str) and any(c.isspace() or c in "'\"\\" for c in text):
        return shlex.quote(text)
    return text


def csv_header(conf: dict) -> str:
    """Header line: package version, the hash of conf, then its key=value pairs.

    The line splits back into its ``k=v`` pairs with `shlex.split`.
    """
    pairs = " ".join(f"{k}={_header_value(v)}" for k, v in conf.items())
    return f"# heavylab {VERSION} config_hash={config_hash(conf)} {pairs}"


def csv_text(conf: dict, cols, rows) -> str:
    """CSV text: the header line for conf, the column line, then one line per row.

    Floats, numpy's included, are written as ``repr(float(v))``; other cells as ``str(v)``.
    A row whose length is not the column count raises ValueError.
    """
    lines = [csv_header(conf), ",".join(cols)]
    for row in rows:
        if len(row) != len(cols):
            raise ValueError(f"a row of {len(row)} cells under {len(cols)} columns")
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"
