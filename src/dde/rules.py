"""The rules that every JSON file the CLI reads is checked against: the config
(`cli.SCHEMA`) and the dataset manifest (`data.MANIFEST`)."""

import json
import reprlib
import sys


class ConfigError(ValueError):
    """Invalid generation or factor configuration."""
    source = "config"               # the file that `checked` names a key of


# (test, what it must satisfy) of a typed value
ANY = (lambda v: True, "")
AT_LEAST_0 = (lambda v: v >= 0, "be >= 0")
AT_LEAST_1 = (lambda v: v >= 1, "be >= 1")
ABOVE_0 = (lambda v: v > 0, "be > 0")
# the key of a section rule that lists the keys the section must hold
REQUIRED = object()


def checked(value, rule, key: str = "", error=ConfigError):
    """A typed copy of `value` that follows `rule`, or an `error` naming the
    dotted `key` of the file `error.source`.

    A dict is a section that takes only its own keys, where a `str` key
    stands for any key (a factor name) and the `REQUIRED` key lists the keys
    it must hold.  A list is a list: with one rule, of any length, each item
    following it; with n > 1 rules, exactly n items, item i following rule i.
    A tuple is (type, test, what the value must satisfy).  A float takes a
    finite int or float and gives a float; no type takes a NaN or an
    infinity, and a bool is not a number."""
    def fail(what):
        where = f"{error.source} key '{key}'" if key else error.source
        return error(f"{where} must {what}, got {reprlib.repr(value)}")

    if isinstance(rule, dict):
        out = {}
        for k, v in checked(value, (dict, *ANY), key, error).items():
            sub = rule.get(k, rule.get(str))
            if sub is None:
                raise error(f"unknown {error.source} key '{k}' in {key or error.source}")
            out[k] = checked(v, sub, f"{key}.{k}" if key else k, error)
        missing = [k for k in rule.get(REQUIRED, ()) if k not in out]
        if missing:
            raise fail(f"have the key '{missing[0]}'")
        return out
    if isinstance(rule, list):
        items = checked(value, (list, *ANY), key, error)
        if len(rule) > 1 and len(items) != len(rule):
            raise fail(f"have {len(rule)} items")
        rules = rule if len(rule) > 1 else rule * len(items)
        return [checked(v, r, f"{key}[{i}]", error)
                for i, (v, r) in enumerate(zip(items, rules))]
    kind, test, what = rule
    if (not isinstance(value, (int, float) if kind is float else kind)
            or (isinstance(value, bool) and kind is not bool)
            or ((kind is float or isinstance(value, float))
                and not abs(value) <= sys.float_info.max)):
        raise fail("be " + (" or ".join(t.__name__ for t in kind)
                            if isinstance(kind, tuple) else kind.__name__))
    if not test(value):
        raise fail(what)
    return float(value) if kind is float else value


def read_json(path: str, error):
    """The JSON value in the file at `path`; text that is not UTF-8, not JSON
    or nested too deeply to parse raises `error`."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise error(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    except (UnicodeDecodeError, RecursionError) as e:
        raise error(f"{path}: unreadable JSON: {e}") from e
