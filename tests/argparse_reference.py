"""The command line as argparse reads it: the tests' reference for `harmbounds.cli.parse_args`.

`harmbounds.cli` read its command line with this parser before its own
`parse_args` replaced it.  That reader must give each command line
the same command, the same option values and the same error message;
argparse ends help with `SystemExit(0)`, which this reference returns as
(None, None), as the reader does.  Messages are Python 3.11's; later
versions reword some.
"""

from __future__ import annotations

import argparse
import contextlib
import io

from harmbounds.errors import ParseError


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="harmbounds")
    sub = parser.add_subparsers(dest="command", required=True)
    p_analyze = sub.add_parser("analyze")
    p_analyze.add_argument("--input", required=True)
    p_analyze.add_argument("--format", choices=("text", "json"), default="text")
    p_example = sub.add_parser("example")
    p_example.add_argument("--format", choices=("text", "json"), default="text")
    p_verify = sub.add_parser("verify")
    p_verify.add_argument("--samples", type=int, required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    return parser


def parse_args(argv: list[str]) -> tuple[str | None, dict | None]:
    """The command and its options by name, or (None, None) for help; a
    malformed command line raises ParseError with argparse's message."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 0
        return None, None
    return args.pop("command"), {"--" + name: value for name, value in args.items()}
