"""Property-based fuzz of the config layer.  A config built from the key
paths of `cli.SCHEMA`, with every key that a section requires, follows the
schema until up to two of its values, at any depth, are replaced by
arbitrary JSON.  The checker (`rules.checked`) must accept it when nothing
was replaced; otherwise only a ConfigError may escape it, and the settings
and factor specs (`data.factor_specs`) built from what it accepts raise
nothing but a ConfigError or a FactorError.  No stage runs and every value
stays small, so no example allocates more than a few kilobytes."""

import json
import math

from hypothesis import given, settings, strategies as st

from dde import cli
from dde.data import ConfigError, FactorError, RENDER_ROLES, factor_specs
from dde.rules import REQUIRED, checked

JSON_LEAF = (st.none() | st.booleans() | st.integers(-3, 50)
             | st.floats(-1e3, 1e3) | st.sampled_from([math.nan, math.inf])
             | st.text(max_size=3))
JSON = st.recursive(JSON_LEAF, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=6)
NAMES = st.sampled_from(["haze", "backdrop", "hze"])
LEAVES = {int: st.integers(-2, 40),
          float: st.integers(-2, 40) | st.floats(-1, 200) | st.floats(0.1, 0.9),
          bool: st.booleans(), str: NAMES | st.sampled_from(RENDER_ROLES)}


def _valid(rule):
    """Values that follow `rule`: every leaf has its type and range."""
    if isinstance(rule, dict) and str in rule:
        return st.dictionaries(NAMES, _valid(rule[str]), max_size=3)
    if isinstance(rule, dict):
        keys = {k: _valid(r) for k, r in rule.items() if k is not REQUIRED}
        need = {k: keys.pop(k) for k in rule.get(REQUIRED, ())}
        return (st.fixed_dictionaries({**need, **keys})
                | st.fixed_dictionaries(need, optional=keys))
    if isinstance(rule, list) and len(rule) > 1:
        return st.tuples(*map(_valid, rule)).map(list)
    if isinstance(rule, list):
        return st.lists(_valid(rule[0]), min_size=2, max_size=3)
    kind, test, _ = rule
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return st.one_of(*(LEAVES[k] for k in kinds)).filter(test)


def _paths(value, path=()):
    """The path of every value inside a config, as a tuple of keys."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        yield path + (k,)
        yield from _paths(v, path + (k,))


@settings(max_examples=250, deadline=None)
@given(config=_valid(cli.SCHEMA), data=st.data())
def test_only_config_errors_escape(config, data):
    # replace up to two values by arbitrary JSON, each at a depth drawn first,
    # so that the few deep values (factor values, rep dims) are hit as often
    # as the many shallow ones
    config, damaged = json.loads(json.dumps(config)), False
    for _ in range(data.draw(st.integers(0, 2))):
        paths = list(_paths(config))
        if paths:
            depth = data.draw(st.sampled_from(sorted({len(p) for p in paths})))
            *parent, last = data.draw(st.sampled_from([p for p in paths if len(p) == depth]))
            target = config
            for k in parent:
                target = target[k]
            target[last] = data.draw(JSON)
            damaged = True
    try:
        typed = checked(config, cli.SCHEMA)
    except ConfigError:
        assert damaged
        return
    assert typed == config
    cli._train_config(typed, 0)
    cli._teacher_config(typed, 0)
    try:
        factor_specs(typed.get("data", {}).get("factors"))
    except (ConfigError, FactorError):
        pass
