"""One declarative option schema for every CLI command and daemon job kind.

Each command's options are declared once, in :data:`COMMANDS`, as
:class:`Option` rows: flag, type, default, and whether the option is a
daemon job param (``param``) or runs in-process only (``local``).  Every
consumer reads the same rows:

* :func:`parse` is the parser of every ``python -m repro`` command.  A
  bad command line prints ``unexpected argument``, ``missing value for
  the last option`` or ``bad option value`` and exits 2; local-only
  options given with ``--daemon`` are refused the same way.
* :func:`usage` renders each command's usage line from its rows.
* :func:`check_params` validates a daemon job's params (allowlist,
  types, ranges) and fills in the defaults the CLI would have used, so
  a job means the same run whichever side built it
  (:mod:`repro.serve.protocol`).

Option types: ``COUNT`` (integer >= 1), ``INT``, ``SEED`` (integer,
any base prefix), ``FRACTION`` (number in [0, 1]), ``JOBS`` (worker
count >= 1 or ``auto``), ``PATH``/``TEXT`` (strings), ``POLICIES``
(repeatable policy names, a list on the wire), ``OBJECT`` (a JSON
object, daemon only) and ``FLAG`` (no value).

Only the standard library is imported at module level: the daemon's
start-up (``repro serve``) parses its command line through here.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, NamedTuple


class Kind(NamedTuple):
    """An option type: how a CLI token and a JSON param value convert."""

    metavar: str
    noun: str
    text: "Callable[[str], Any] | None"  # None: a flag, takes no token
    json: "Callable[[Any], Any] | None" = None  # None: not a job param
    repeat: bool = False


def _json_type(types, noun: str):
    def check(value):
        if isinstance(value, types) and not isinstance(value, bool):
            return value
        raise ValueError(f"must be {noun}, got {type(value).__name__}")
    return check


def _text_as(convert, noun: str):
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise ValueError(f"must be {noun}, got {text!r}") from None
    return parse


def _at_least_one(value: int) -> int:
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _unit_interval(value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"must be within [0, 1], got {value}")
    return value


def _jobs(text: str) -> "int | str":
    if text == "auto":
        return text
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    import difflib

    hint = (" (did you mean 'auto'?)"
            if difflib.get_close_matches(text, ["auto"], n=1, cutoff=0.6)
            else "")
    raise ValueError(f"must be a worker count or 'auto', got {text!r}{hint}")


def _policy_list(value) -> tuple:
    if (isinstance(value, (list, tuple))
            and all(isinstance(name, str) for name in value)):
        return tuple(value)
    raise ValueError("must be a list of policy names")


_int_text = _text_as(int, "an integer")
_int_json = _json_type(int, "an integer")
_float_text = _text_as(float, "a number")
_float_json = _json_type((int, float), "a number")
_string = _json_type(str, "a string")

COUNT = Kind("N", "an integer >= 1",
             lambda text: _at_least_one(_int_text(text)),
             lambda value: _at_least_one(_int_json(value)))
INT = Kind("N", "an integer", _int_text, _int_json)
SEED = Kind("N", "an integer",
            _text_as(lambda text: int(text, 0), "an integer"), _int_json)
FRACTION = Kind("F", "a number in [0, 1]",
                lambda text: _unit_interval(_float_text(text)),
                lambda value: _unit_interval(_float_json(value)))
JOBS = Kind("N|auto", "a worker count or 'auto'", _jobs)
PATH = Kind("PATH", "a path", str, _string)
TEXT = Kind("NAME", "a value", str, _string)
POLICIES = Kind("NAME", "a policy name", str, _policy_list, repeat=True)
OBJECT = Kind("", "a JSON object", None, _json_type(dict, "a JSON object"))
FLAG = Kind("", "", None)


class Option(NamedTuple):
    """One option of one command.

    ``flag`` is ``--name`` for an option, ``<name>`` for a required
    positional, ``[name]`` for an optional one (``[name]...`` takes any
    number), and ``None`` for a job param with no CLI spelling.
    """

    flag: "str | None"
    kind: Kind
    default: Any = None
    param: "str | None" = None  # the daemon job param this option is
    local: bool = False  # runs in-process only: refused with --daemon
    aliases: tuple = ()
    metavar: "str | None" = None
    label: "str | None" = None  # names the value in error messages
    choices: "tuple | None" = None

    @property
    def name(self) -> str:
        """Key of the option's value in :class:`Parsed`."""
        return self.param or self.flag.strip("-<>[].").replace("-", "_")

    @property
    def positional(self) -> bool:
        return self.flag is not None and self.flag[0] in "<["


class Command(NamedTuple):
    """A CLI command (``prog`` is its usage prefix) or a job kind."""

    prog: "str | None"  # None: a daemon job kind with no CLI of its own
    options: tuple
    unknown: str = "unexpected argument {arg!r}"
    stderr: bool = False  # errors to stderr, as the bench tool does
    passthrough: "str | None" = None  # this word ends parsing: rest goes on


class Parsed(dict):
    """Option values by :attr:`Option.name`, defaults filled in."""

    def __init__(self, command: str):
        super().__init__()
        self.command = command
        self.given: set[str] = set()
        self.rest: "list[str] | None" = None

    def params(self) -> dict:
        """The job params named on the command line (a daemon request)."""
        return {option.param: self[option.name]
                for option in COMMANDS[self.command].options
                if option.param and option.name in self.given}


#: Shard size of a fleet run; :class:`repro.fleet.run.FleetSpec` shares it.
DEFAULT_SHARD_SIZE = 32

_SEED = Option("--seed", SEED, 0x5EED, param="seed")
_MEMBER = Option("--member", INT, 0, param="member")
_POLICIES = Option("--policy", POLICIES, (), param="policies")
_OUTPUT = Option("--output", PATH, aliases=("-o",))
_DAEMON = Option("--daemon", TEXT, metavar="URL")

COMMANDS: dict[str, Command] = {
    "fleet": Command("fleet", (
        Option("--devices", COUNT, 120, param="devices"),
        _POLICIES,
        Option("--faults", FRACTION, 0.0, param="faults",
               label="fault fraction"),
        Option("--oracle", FRACTION, 0.0, param="oracle", metavar="RATE",
               label="oracle rate"),
        Option("--jobs", JOBS, local=True),
        Option("--shard-size", COUNT, DEFAULT_SHARD_SIZE, param="shard_size"),
        _SEED,
        Option("--checkpoint", PATH, local=True),
        Option("--checkpoint-every", COUNT, local=True),
        Option("--stats", FLAG, local=True),
        Option("--workload", TEXT, param="workload", metavar="NAME|FILE"),
        Option(None, OBJECT, param="workload_ir"),
        Option("--phases", TEXT, param="phases"),
        _DAEMON,
        Option("--events-log", PATH),
        _OUTPUT,
    )),
    "oracle": Command("oracle", (
        Option("<app>", TEXT, param="app"),
        _POLICIES, _SEED, _MEMBER, _DAEMON, _OUTPUT,
    )),
    "hunt": Command("hunt", (
        Option("[rules]", TEXT),
        Option("--apps", COUNT, 100, param="apps"),
        _SEED, _POLICIES,
        Option("--jobs", JOBS, local=True),
        Option("--no-cache", FLAG, local=True),
        _DAEMON, _OUTPUT,
    )),
    "experiment": Command(None, (
        Option("<experiment>", TEXT, param="experiment"),
        _SEED,
    )),
    "experiments": Command("", (
        Option("[experiment]...", TEXT, ()),
        Option("--jobs", JOBS),
        Option("--no-cache", FLAG),
        Option("--cache-root", PATH),
        Option("--no-snapshots", FLAG),
        Option("--verify-forks", FLAG),
    )),
    "trace": Command("trace", (
        Option("[target]", TEXT),
        _OUTPUT,
        Option("--no-verify", FLAG),
    )),
    "workload show": Command("workload show", (
        Option("<name>", TEXT), _SEED, _MEMBER, _OUTPUT,
    )),
    "workload record": Command("workload record", (
        Option("--app", TEXT, "fleet.notepad"),
        Option("--policy", TEXT, "rchdroid"),
        Option("--workload", TEXT, "config-churn"),
        _SEED, _MEMBER,
        Option("--output", PATH, "recorded_workload.json", aliases=("-o",)),
    )),
    "serve": Command("serve", (
        Option("--port", INT, 0),
        Option("--host", TEXT, "127.0.0.1", metavar="H"),
        Option("--jobs", JOBS, "auto"),
        Option("--root", PATH),
        Option("--ready-file", PATH),
        Option("--stream-every", INT),
        Option("--stop", TEXT, metavar="URL"),
        Option("--help", FLAG, aliases=("-h",)),
    )),
    "bench-engine": Command("bench-engine", (
        Option("[mode]", TEXT, "engine",
               choices=("engine", "fleet", "serve", "hunt")),
        Option("--jobs", COUNT),
        _OUTPUT,
        Option("--check", FLAG),
        Option("--devices", COUNT),
        Option("--no-scaling", FLAG),
        Option("--phases", FLAG),
        Option("--no-phases", FLAG),
        Option("--resume-check", FLAG),
        Option("--max-rss-mb", INT),
    ), unknown="bench-engine: unknown argument {arg!r}", stderr=True,
        passthrough="fleet-cli"),
}


def usage(command: str) -> str:
    """``command``'s usage line, rendered from its schema."""
    words = [f"python -m repro {COMMANDS[command].prog}".rstrip()]
    for option in COMMANDS[command].options:
        if option.flag is None:
            continue
        if option.positional:
            words.append(option.flag)
            continue
        shown = option.aliases[0] if option.aliases else option.flag
        if option.kind.text is not None:
            shown += f" {option.metavar or option.kind.metavar}"
        words.append(f"[{shown}]" + ("..." if option.kind.repeat else ""))
    lines = ["usage:"]
    for word in words:
        if len(lines[-1]) + 1 + len(word) > 79:
            lines.append(" " * 7)
        lines[-1] += " " + word
    return "\n".join(lines)


def parse(command: str, argv: "list[str]") -> "Parsed | int":
    """Parse ``argv`` against ``command``'s schema.

    Returns the :class:`Parsed` values, or exit status 2 after printing
    what is wrong with the command line.
    """
    schema = COMMANDS[command]
    stream = sys.stderr if schema.stderr else sys.stdout

    def fail(message: str, show_usage: bool = False) -> int:
        print(message, file=stream)
        if show_usage:
            print(usage(command), file=stream)
        return 2

    by_flag = {flag: option for option in schema.options
               if option.flag and not option.positional
               for flag in (option.flag, *option.aliases)}
    positionals = [option for option in schema.options if option.positional]
    values = Parsed(command)
    tokens = iter(argv)
    for token in tokens:
        option = by_flag.get(token)
        if option is None and token == schema.passthrough:
            values.rest = list(tokens)
            break
        if option is None:
            choices = positionals[0].choices if positionals else None
            if (token.startswith("-") or not positionals
                    or (choices and token not in choices)):
                return fail(schema.unknown.format(arg=token), True)
            option = positionals[0]
            if not option.flag.endswith("..."):
                positionals.pop(0)
            value = token
        elif option.kind.text is None:
            value = True
        else:
            text = next(tokens, None)
            if text is None:
                return fail("missing value for the last option: "
                            f"{token} needs {option.kind.noun}")
            try:
                value = option.kind.text(text)
            except ValueError as error:
                return fail("bad option value: "
                            f"{option.label or option.flag} {error}")
        if option.kind.repeat or option.flag.endswith("..."):
            values.setdefault(option.name, []).append(value)
        else:
            values[option.name] = value
        values.given.add(option.name)
    for option in schema.options:
        if option.flag is not None:
            values.setdefault(option.name, option.default
                              if option.kind is not FLAG else False)
    if any(option.flag.startswith("<") for option in positionals):
        return fail(usage(command))
    if values.get("daemon") is not None:
        local = [option.flag for option in schema.options
                 if option.local and option.name in values.given]
        if local:
            return fail("these options run in-process and do not combine "
                        f"with --daemon: {', '.join(local)}")
    return values


def check_params(kind: str, params: Any) -> dict:
    """Validate a ``kind`` job's params; return them with defaults filled.

    ``null`` counts as absent.  Raises :class:`ValueError` naming the
    param at fault; the daemon answers it with a 400.
    """
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ValueError("job params must be a JSON object")
    fields = {option.param: option for option in COMMANDS[kind].options
              if option.param}
    unknown = set(params) - set(fields)
    if unknown:
        raise ValueError(f"unknown {kind} params {sorted(unknown)}; "
                         f"known: {sorted(fields)}")
    checked = {}
    for key, option in fields.items():
        value = params.get(key)
        if value is None:
            if option.flag and option.flag.startswith("<"):
                raise ValueError(f"{kind} jobs need the {key!r} param")
            checked[key] = option.default
            continue
        try:
            checked[key] = option.kind.json(value)
        except ValueError as error:
            raise ValueError(f"param {key!r} {error}") from None
    return checked
