"""The command line, read from one table of commands and their options.

`parse_args` reads every command line as Python 3.11's argparse read it
for `harmbounds.cli`: the same command, option values and error messages.
It replaced argparse, whose import (with `gettext` and `locale`) cost every
CLI call about 2 ms.  It has a module of its own because every CLI call
compiles `cli.py` from source when no bytecode cache is written, and the
compile's memory peak, which grows with the file, sets the peak RSS of a
`verify` call.
"""

from __future__ import annotations

import re

from .errors import ParseError

# Each command's options, in the order an ambiguous prefix lists them, with a converter
# (a tuple lists the accepted values) and a default; a required option's default is None.
_FORMATS = ("text", "json")
_COMMANDS = {
    "analyze": {"--input": (str, None), "--format": (_FORMATS, "text")},
    "example": {"--format": (_FORMATS, "text")},
    "verify": {"--samples": (int, None), "--seed": (int, 0)},
}
_HELP = ("-h", "--help")


def _read_option(token: str, names: tuple[str, ...]) -> tuple[str | None, str | None] | None:
    """How argparse reads `token` against the options `names`: None for a
    value, else the option (None when unknown) and the value written in the
    token itself, after `=` or after `-h` (None when there is none)."""
    if token[:1] != "-" or token == "-":
        return None
    if token == "--":  # ends the options, and is no value either
        return None, token
    head, eq, value = token.partition("=")
    if token in names:
        return token, None
    if eq and head in names:
        return head, value
    if token[1] == "-":
        matches = [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise ParseError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token[1] == "h":
        return "-h", token[2:]
    if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token:  # a negative number, or text with a space
        return None
    return None, token


def _help_asked(option: str | None, value: str | None) -> bool:
    """Whether a read option asks for help, which takes no value but more
    `h`s bundled after `-h`."""
    if option in _HELP and value is not None:
        rest = value.lstrip("h") if option == "-h" else value
        if rest or not value:
            raise ParseError(f"argument -h/--help: ignored explicit argument {rest!r}")
    return option in _HELP


def parse_args(argv: list[str]) -> tuple[str | None, dict | None]:
    """The command and its options, by name, read as argparse reads them:
    `--opt value` or `--opt=value`, any unique prefix of an option, and the
    last value of a repeated one; (None, None) when help is asked for.  A
    malformed command line raises ParseError with argparse's message."""
    extras = []
    for i, token in enumerate(argv):
        read = _read_option(token, _HELP)
        if read is None or token == "--" and i + 1 < len(argv):
            break
        if _help_asked(*read):
            return None, None
        extras.append(token)
    else:
        raise ParseError("the following arguments are required: command")
    command, rest = argv[i], argv[i + 1 :]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise ParseError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    table = _COMMANDS[command]
    # Every token is read before any value is converted, so an ambiguous prefix
    # is the first fault; after the first `--`, every token is a value.
    end = rest.index("--") + 1 if "--" in rest else len(rest)
    reads = [_read_option(token, _HELP + tuple(table)) for token in rest[:end]] + [None] * (len(rest) - end)
    options = {name: default for name, (_, default) in table.items()}
    i = 0
    while i < len(rest):
        read, i = reads[i], i + 1
        if read is None or read[0] is None:
            extras.append(rest[i - 1])
            continue
        if _help_asked(*read):
            return None, None
        name, value = read
        if value is None:
            if i == len(rest) or reads[i] is not None:
                raise ParseError(f"argument {name}: expected one argument")
            value, i = rest[i], i + 1
        convert = table[name][0]
        if type(convert) is tuple:
            if value not in convert:
                choices = ", ".join(map(repr, convert))
                raise ParseError(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        else:
            try:
                value = convert(value)
            except ValueError:
                raise ParseError(f"argument {name}: invalid {convert.__name__} value: {value!r}") from None
        options[name] = value
    missing = [name for name, value in options.items() if value is None]
    if missing:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ParseError(f"unrecognized arguments: {' '.join(extras)}")
    return command, options
