"""File formats shared by the library and the command line.

Payoff matrices are small integers and travel as plain JSON numbers.
Everything that can grow -- numerators, denominators, complexity values --
travels as decimal strings so downstream consumers cannot silently round.
The game writer is deliberately byte-stable: one matrix row per line,
fixed key order, trailing newline.  Golden files depend on that.

An equilibrium can have denominators past the interpreter's int/string
digit limit (4,300 by default), so every integer computed from a game is
written by ``decimal_str``; ``str()`` stays only where a cap or the parser
bounds the value (scan and recurrence rows, sampler reports, parsed
payoffs, counts and indices).  The reader keeps the limit, which keeps
parsing and a distribution's gcd check linear in file size, and its
refusal names ``PYTHONINTMAXSTRDIGITS``, the variable that lifts it.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Any, Callable

from .errors import NotADistribution, ParseError
from .exact import IntMatrix
from .games import Game, MixedStrategy, Profile


def dumps_game(game: Game) -> str:
    lines = ["{"]
    lines.append(f'  "n": {game.n},')
    for name, matrix in (("A", game.A), ("B", game.B)):
        lines.append(f'  "{name}": [')
        for r, row in enumerate(matrix.rows):
            comma = "," if r < matrix.n - 1 else ""
            lines.append("    [" + ", ".join(str(v) for v in row) + "]" + comma)
        lines.append("  ],")
    tag = json.dumps(game.family_tag)
    lines.append(f'  "family_tag": {tag},')
    cs = json.dumps(game.constant_sum)
    lines.append(f'  "constant_sum": {cs}')
    lines.append("}")
    return "\n".join(lines) + "\n"


_CHUNK_DIGITS = 512  # below the least digit limit the interpreter allows (640)
_CHUNK = 10**_CHUNK_DIGITS


def decimal_str(v: int) -> str:
    """``str(v)`` for an int v >= 0 of any length, in 512-digit chunks."""
    if v < _CHUNK:  # most values; a third of the cost of the loop below
        return str(v)
    chunks = []
    while v >= _CHUNK:
        v, low = divmod(v, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    return str(v) + "".join(reversed(chunks))


def _too_long(where: str, digits: int) -> ParseError:
    return ParseError(
        f"{where}: a number of {digits} digits exceeds the interpreter's limit of "
        f"{sys.get_int_max_str_digits()}; set PYTHONINTMAXSTRDIGITS to a larger "
        "limit, or to 0 for none, to read it")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _object(text: str) -> dict:
    """The JSON object ``text`` holds; any other text is a ParseError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError as exc:  # an integer literal past the digit limit
        limit = sys.get_int_max_str_digits()
        run = limit and re.search(rf"(?<![\d.])\d{{{limit + 1},}}(?![\d.eE])", text)
        if not run:
            raise ParseError(str(exc)) from None
        line = text.count("\n", 0, run.start()) + 1
        column = run.start() - text.rfind("\n", 0, run.start())
        raise _too_long(f"line {line}, column {column}", len(run[0])) from None
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    return obj


def _is_int(v: Any) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def strategy_to_json(x: MixedStrategy) -> dict:
    """Big integers travel as decimal strings so no consumer rounds them."""
    return {
        "numerators": [decimal_str(p) for p in x.numerators],
        "denominator": decimal_str(x.denominator),
    }


def _big_int(v: Any, field: str) -> int:
    """A decimal string, as written above, or a plain JSON integer."""
    if _is_int(v):
        return v
    if not isinstance(v, str):
        kind = type(v).__name__
        raise ParseError(f"field {field!r}: expected a decimal string, got {kind}")
    try:
        return int(v)
    except ValueError as exc:
        body = v.strip().replace("_", "").removeprefix("-").removeprefix("+")
        if body.isdecimal() and 0 < sys.get_int_max_str_digits() < len(body):
            raise _too_long(f"field {field!r}", len(body)) from None
        raise ParseError(f"field {field!r}: {exc}") from None


def strategy_from_json(obj: Any) -> MixedStrategy:
    if not isinstance(obj, dict):
        raise ParseError("a distribution must be an object")
    if "numerators" not in obj:
        raise ParseError("field 'numerators' is missing")
    nums = obj["numerators"]
    if not isinstance(nums, list):
        kind = type(nums).__name__
        raise ParseError(f"field 'numerators': expected a list, got {kind}")
    if "denominator" not in obj:
        raise ParseError("field 'denominator' is missing")
    try:
        return MixedStrategy(
            tuple([_big_int(v, "numerators") for v in nums]),
            _big_int(obj["denominator"], "denominator"),
        )
    except NotADistribution as exc:
        raise ParseError(f"bad distribution object: {exc}") from exc


def _int_matrix(obj: Any, field: str, n: int) -> IntMatrix:
    if not isinstance(obj, list) or len(obj) != n:
        raise ParseError(f"field {field!r}: expected {n} rows")
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"field {field!r}, row {r + 1}: expected {n} entries")
        for c, v in enumerate(row):
            if not _is_int(v):
                raise ParseError(
                    f"field {field!r}, row {r + 1}, column {c + 1}: "
                    f"payoffs must be integers, got {v!r}"
                )
    return IntMatrix._of_ints(obj)


def parse_game(text: str) -> Game:
    obj = _object(text)
    try:
        n = obj["n"]
    except KeyError:
        raise ParseError("field 'n' is missing")
    if not _is_int(n) or n < 1:
        raise ParseError(f"field 'n': expected a positive integer, got {n!r}")
    if "A" not in obj or "B" not in obj:
        raise ParseError("fields 'A' and 'B' are required")
    a = _int_matrix(obj["A"], "A", n)
    b = _int_matrix(obj["B"], "B", n)
    tag = obj.get("family_tag")
    if tag is not None and not isinstance(tag, str):
        raise ParseError("field 'family_tag': expected a string or null")
    cs = obj.get("constant_sum")
    if cs is not None and not _is_int(cs):
        raise ParseError("field 'constant_sum': expected an integer or null")
    try:
        return Game(a, b, family_tag=tag, constant_sum=cs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _load(path: str, parse: Callable[[str], Any]) -> Any:
    """``parse`` of the file's text; a refusal names the file it read."""
    text = _read(path)
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_game(path: str) -> Game:
    return _load(path, parse_game)


def load_distribution(path: str) -> MixedStrategy:
    return _load(path, lambda text: strategy_from_json(_object(text)))


def dumps_profile(profile: Profile) -> str:
    """``json.dumps`` of both players' ``strategy_to_json``, indent 2, byte for byte.

    The shape is fixed and every value is a string of digits, which JSON
    writes between quotes as it is, so the text is put together directly
    rather than through the encoder.
    """
    return "{\n" + _strategy_block("x", profile.x, ",") + _strategy_block(
        "y", profile.y, "") + "}\n"


def _strategy_block(name: str, x: MixedStrategy, end: str) -> str:
    nums = '",\n      "'.join(map(decimal_str, x.numerators))
    return (
        f'  "{name}": {{\n    "numerators": [\n      "{nums}"\n    ],\n'
        f'    "denominator": "{decimal_str(x.denominator)}"\n  }}{end}\n'
    )


def load_profile(path: str) -> Profile:
    return _load(path, _parse_profile)


def _parse_profile(text: str) -> Profile:
    obj = _object(text)
    if "x" not in obj or "y" not in obj:
        raise ParseError("profile object needs fields 'x' and 'y'")
    return Profile(strategy_from_json(obj["x"]), strategy_from_json(obj["y"]))
