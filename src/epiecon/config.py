"""Scenario configuration: strict JSON schema, defaults, and builders.

A configuration is one JSON document.  Age-dependent coefficients are given
either as literal tables (one value per cell) or as named parametric
families sampled at grid construction.  Validation is strict: the schema
checks shape (``validate_config``, one walker over the JSON tree for the
keywords ``SCHEMA`` uses), each value rule lives in the constructor of the
object it configures, and every error names the offending field path.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import math
import operator
import re
import typing

import numpy as np

from . import economy, epi, objectives
from .errors import ConfigurationError
from .grid import AgeGrid, TimeGrid, expand_blocks, separable_kernel, table_kernel
from .hamiltonian import ControlSearchGrid, LinearValue, QuadraticValue
from .hilbert import DEFAULT_WEIGHT_FLOOR
from .optimizer import OptimizerConfig
from .scenario import Scenario


def _block_table(**bounds) -> dict:
    """Schema of a policy block table: rows of numbers within ``bounds``."""
    return {"type": "array", "items": {"type": "array", "items": {"type": "number", **bounds}}}


# type -> class, one table per variant section; a branch and a spec hold exactly its fields
_CLASSES = {
    "production": {"linear": economy.LinearProduction, "ces": economy.CESProduction,
                   "cobb_douglas": economy.CobbDouglasProduction},
    "phi": {"power": economy.PowerLockdown, "affine": economy.AffineLockdown},
    "congestion": {"linear": economy.LinearCongestion,
                   "concave_power": economy.ConcavePowerCongestion},
    "utility": {"shifted_crra": objectives.ShiftedCRRAUtility,
                "separable": objectives.SeparableUtility},
}


_NUMBER_LIST = {"type": "array", "items": {"type": "number"}}
# annotation -> the schema of a field so annotated, where it is not a number
_ANNOTATED = {int: {"type": "integer"}, tuple: _NUMBER_LIST}


def _numbers(cls) -> dict:
    """The schema of each field of the dataclass ``cls``, in field order: an integer for an
    ``int``, a list of numbers for a ``tuple``, else a number, or also null where its
    annotation allows None (the parameters of a model form)."""
    hints = typing.get_type_hints(cls)
    return {f.name: _ANNOTATED.get(hints[f.name]) or {
        "type": ["number", "null"] if type(None) in typing.get_args(hints[f.name]) else "number"}
        for f in dataclasses.fields(cls)}


def _branch(kind: str, properties: dict, required) -> dict:
    """A ``oneOf`` branch: the const ``type``, then ``properties``, the keys ``required``."""
    return {"properties": {"type": {"const": kind}, **properties},
            "required": ["type", *required], "additionalProperties": False}


def _variants(section: str) -> dict:
    """Schema of a variant section: one branch per class of ``_CLASSES[section]``, its
    ``type`` and then the class's fields, required where they have no default."""
    return {"type": "object", "oneOf": [
        _branch(kind, _numbers(cls), [f.name for f in dataclasses.fields(cls)
                                      if f.default is dataclasses.MISSING])
        for kind, cls in _CLASSES[section].items()]}


# type -> sampler of an age-profile family: its values at the grid's nodes a, from the
# family's parameters (the keys of its spec)
_FAMILIES = {
    "constant": lambda grid, a, value: np.full(grid.n_age, float(value)),
    "table": lambda grid, a, values: np.asarray(values, dtype=np.float64),
    "linear": lambda grid, a, v0, v1: v0 + (v1 - v0) * a / grid.a_max,
    "logistic": lambda grid, a, lo, hi, midpoint, width:
        lo + (hi - lo) / (1.0 + np.exp(-((a - midpoint) / width))),
    "gompertz": lambda grid, a, base, rate: base * np.exp(rate * a),
    "band": lambda grid, a, lo_age, hi_age, value, background=0.0:
        np.where((a >= lo_age) & (a < hi_age), value, background),
    "bump": lambda grid, a, center, width, height: height * np.exp(-(((a - center) / width) ** 2)),
}
# (type, parameter) -> its rules beyond a number: a table's list, bounds no constructor checks
_FAMILY_RULES = {("table", "values"): _NUMBER_LIST, ("logistic", "width"): {"exclusiveMinimum": 0},
                 ("gompertz", "base"): {"minimum": 0}, ("bump", "width"): {"exclusiveMinimum": 0}}


def _families() -> dict:
    """Schema of an age profile: one branch per sampler of ``_FAMILIES``, its ``type`` and
    then the sampler's parameters after (grid, a), each a number within its
    ``_FAMILY_RULES``, required where it has no default."""
    params = {kind: list(inspect.signature(sampler).parameters.values())[2:]
              for kind, sampler in _FAMILIES.items()}
    return {"type": "object", "oneOf": [
        _branch(kind, {p.name: {"type": "number", **_FAMILY_RULES.get((kind, p.name), {})}
                       for p in ps}, [p.name for p in ps if p.default is p.empty])
        for kind, ps in params.items()]}


_FAMILY = _families()

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["grid", "epidemic", "economy", "objective"],
    "properties": {
        "grid": {
            "type": "object", "additionalProperties": False,
            "required": ["a_max", "n_age", "n_steps"],
            "properties": {
                "a_max": {"type": "number"}, "n_age": {"type": "integer"},
                "t0": {"type": "number"}, "n_steps": {"type": "integer"},
            },
        },
        "epidemic": {
            "type": "object", "additionalProperties": False,
            "required": ["mu_S", "mu_R", "mu_I_base", "gamma", "beta", "xi",
                         "contact", "initial"],
            "properties": {
                "mu_S": _FAMILY, "mu_R": _FAMILY, "mu_I_base": _FAMILY,
                "gamma": _FAMILY, "beta": _FAMILY, "xi": _FAMILY,
                "contact": {"type": "object", "oneOf": [
                    _branch("constant", {"m0": {"type": "number"}}, ["m0"]),
                    _branch("separable", {"m0": {"type": "number"}, "shape": _FAMILY},
                            ["m0", "shape"]),
                    _branch("table", {"values": {"type": "array"}}, ["values"])]},
                "saturation": {"type": "object", "additionalProperties": False,
                               "properties": _numbers(epi.SaturationSpec)},
                "initial": {
                    "type": "object", "additionalProperties": False,
                    "required": ["s", "i", "r"],
                    "properties": {"s": _FAMILY, "i": _FAMILY, "r": _FAMILY},
                },
                "n_floor_rel": {"type": "number", "exclusiveMinimum": 0},
                "weight_floor": {"type": "number"},
            },
        },
        "economy": {
            "type": "object", "additionalProperties": False,
            "required": ["alpha", "e", "delta", "production"],
            "properties": {
                "alpha": _FAMILY, "e": _FAMILY,
                "delta": {"type": "number"},
                **{key: _variants(key) for key in ("production", "phi", "congestion")},
                "cost_complement": {"type": "boolean"},
                "K0": {"type": "number", "minimum": 0},
            },
        },
        "objective": {
            "type": "object", "additionalProperties": False,
            "required": ["which", "rho"],
            "properties": {
                "which": {"type": "string"}, "rho": {"type": "number"},
                "nu": {"type": "number"}, "T_num": {"type": ["number", "null"]},
                "utility": _variants("utility"),
                "j6_discounted": {"type": "boolean"},
                "j6_sign": {"type": "number"},
                "composite": {"type": ["object", "null"],
                              "additionalProperties": {"type": "number"}},
            },
        },
        "policy": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "preset": {"enum": ["laissez_faire", "full_lockdown", "blocks"]},
                "c_level": {"type": "number", "minimum": 0},
                "theta_level": {"type": "number", "minimum": 0, "maximum": 1},
                "eta_level": {"type": "number", "minimum": 0, "maximum": 1},
                "n_time_blocks": {"type": "integer", "minimum": 1},
                "n_age_blocks": {"type": "integer", "minimum": 1},
                "c": _block_table(minimum=0),
                "theta": _block_table(minimum=0, maximum=1),
                "eta": _block_table(minimum=0, maximum=1),
            },
        },
        "search": {
            "type": "object", "additionalProperties": False,
            "properties": _numbers(ControlSearchGrid),
        },
        "optimizer": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "initial_step": {"type": "number", "exclusiveMinimum": 0},
                "backtrack": {"type": "number", "exclusiveMinimum": 0,
                              "exclusiveMaximum": 1},
                "max_backtracks": {"type": "integer", "minimum": 0},
                "max_iters": {"type": "integer", "minimum": 0},
                "grad_mode": {"enum": ["central", "forward"]},
                "fd_eps_c": {"type": "number", "exclusiveMinimum": 0},
                "fd_eps_theta": {"type": "number", "exclusiveMinimum": 0},
                "fd_eps_eta": {"type": "number", "exclusiveMinimum": 0},
                "penalty": {"type": "number", "exclusiveMinimum": 0},
                "n_age_blocks": {"type": "integer", "minimum": 1},
                "n_time_blocks": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "seed": {"type": "integer", "minimum": 0},
                "jitter": {"type": "number", "minimum": 0},
            },
        },
        "verification": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "value_function": {
                    "type": "object", "additionalProperties": False,
                    "required": ["type"],
                    "properties": {
                        "type": {"enum": ["linear", "quadratic"]},
                        "w1": _FAMILY, "w2": _FAMILY, "w3": _FAMILY,
                        "q": {"type": "number"},
                    },
                },
                "adjoint_pairs": {"type": "integer", "minimum": 1},
                "horizon_multipliers": {"type": "array", "minItems": 1,
                                        "items": {"type": "number",
                                                  "exclusiveMinimum": 0}},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "sweep": {
            "type": "object", "additionalProperties": False,
            "required": ["axes"],
            "properties": {
                "axes": {
                    "type": "array", "minItems": 1, "maxItems": 2,
                    "items": {
                        "type": "object", "additionalProperties": False,
                        "required": ["path", "values"],
                        "properties": {
                            "path": {"type": "string"},
                            "values": {"type": "array", "minItems": 1,
                                       "items": {"type": "number"}},
                        },
                    },
                },
            },
        },
        "output": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "dir": {"type": "string"},
                "snapshot_times": _NUMBER_LIST,
            },
        },
    },
}

DEFAULTS = {
    "grid": {"t0": 0.0},
    "epidemic": {
        "saturation": {"xi_cap": 1.0, "psi": 0.0, "smooth": 1.0},
        "n_floor_rel": 1e-9,
        "weight_floor": DEFAULT_WEIGHT_FLOOR,
    },
    "economy": {
        "phi": {"type": "power", "q": 1.0},
        "congestion": {"type": "linear", "d1": 0.0},
        "cost_complement": False,
        "K0": 0.0,
    },
    "objective": {
        "nu": 1.0,
        "T_num": None,
        "utility": {"type": "shifted_crra",
                    **dataclasses.asdict(objectives.ShiftedCRRAUtility())},
        "j6_discounted": False,
        "j6_sign": 1.0,
        "composite": None,
    },
    "policy": {"preset": "laissez_faire", "c_level": 0.0,
               "theta_level": 1.0, "eta_level": 1.0,
               "n_time_blocks": 1, "n_age_blocks": 1},
    "search": {"theta_levels": [0.0, 0.25, 0.5, 0.75, 1.0],
               "eta_levels": [0.0, 0.25, 0.5, 0.75, 1.0],
               "n_age_blocks": 1, "c_max": 10.0, "max_sweeps": 30},
    "optimizer": dataclasses.asdict(OptimizerConfig()),
    "verification": {
        "value_function": {"type": "linear",
                           "w1": {"type": "constant", "value": 1.0},
                           "w2": {"type": "constant", "value": 1.0},
                           "w3": {"type": "constant", "value": 1.0},
                           "q": 1.0},
        "adjoint_pairs": 50,
        "horizon_multipliers": [1.0, 2.0, 4.0],
        "seed": 0,
    },
    "output": {"dir": "out", "snapshot_times": []},
}


def _merge_defaults(cfg, defaults) -> None:
    """Fill the keys ``cfg`` lacks from (copies of) ``defaults``, in place."""
    for key, val in defaults.items():
        if key not in cfg:
            cfg[key] = copy.deepcopy(val)
        elif isinstance(val, dict) and isinstance(cfg[key], dict):
            # variant objects (discriminated by "type") are atomic: a user
            # choice must not inherit keys from a different default variant
            if "type" in val or "type" in cfg[key]:
                continue
            _merge_defaults(cfg[key], val)


_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}
# keyword -> (the JSON type it checks, the test that breaks it, the message)
_LIMITS = {"minimum": ("number", operator.lt, "is less than the minimum"),
           "exclusiveMinimum": ("number", operator.le, "is less than or equal to the minimum"),
           "maximum": ("number", operator.gt, "is greater than the maximum"),
           "exclusiveMaximum": ("number", operator.ge, "is greater than or equal to the maximum"),
           "minItems": ("array", operator.lt, "has fewer items than"),
           "maxItems": ("array", operator.gt, "has more items than"),
           "minProperties": ("object", operator.lt, "has fewer properties than")}


def _shown(value) -> str:
    """An offending value as a message shows it: its repr, cut short from 80
    characters on (a 200 x 200 table's repr is 240 KB)."""
    text = repr(value)
    return text if len(text) < 80 else text[:76] + " ..."


def _is(value, kind: str) -> bool:
    """JSON type test: a bool is no number, and an integer is an int (16.0 would pass
    as integral and then break numpy)."""
    if kind in ("number", "integer"):
        return type(value) is int or kind == "number" and isinstance(value, float)
    return isinstance(value, _JSON_TYPES[kind])


def _same(a, b) -> bool:
    """JSON equality, for ``const`` and ``enum``: true is not 1, while 1 is 1.0."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _walk(node, schema: dict, path: tuple = ()):
    """Yield ``(path, field, message)`` for each rule of ``schema`` that ``node`` breaks.

    ``path`` is the key path of the node the rule checks, ``field`` the one to
    name: a missing key's, or a ``oneOf`` branch's own.  A ``oneOf`` picks its
    branch by the ``type`` const of each branch (unmatched, it names ``.type``).
    """
    obj = isinstance(node, dict)
    for key, rule in schema.items():
        if key == "type":
            if not any(_is(node, kind) for kind in ([rule] if isinstance(rule, str) else rule)):
                yield path, path, f"{_shown(node)} is not of type {rule!r}"
        elif key in ("const", "enum"):
            if not any(_same(node, value) for value in ([rule] if key == "const" else rule)):
                yield path, path, (f"{_shown(node)} is not "
                                   f"{'one of ' if key == 'enum' else ''}{rule!r}")
        elif key in _LIMITS:
            kind, test, words = _LIMITS[key]
            if _is(node, kind) and test(node if kind == "number" else len(node), rule):
                yield path, path, f"{_shown(node)} {words} {rule!r}"
        elif key == "items":
            for index, item in enumerate(node if isinstance(node, list) else ()):
                yield from _walk(item, rule, (*path, index))
        elif key == "properties":
            for name, sub in rule.items() if obj else ():
                if name in node:
                    yield from _walk(node[name], sub, (*path, name))
        elif key == "required":
            yield from ((path, (*path, name), f"{name!r} is a required property")
                        for name in (rule if obj else ()) if name not in node)
        elif key == "additionalProperties":
            extra = [k for k in node if k not in schema.get("properties", {})] if obj else []
            if rule is False and extra:
                yield path, path, f"additional properties are not allowed ({extra} unexpected)"
            for name in extra if isinstance(rule, dict) else ():
                yield from _walk(node[name], rule, (*path, name))
        elif key == "oneOf":
            kinds = [branch["properties"]["type"]["const"] for branch in rule]
            kind = node.get("type") if obj else None
            match = [branch for branch, const in zip(rule, kinds) if _same(kind, const)]
            yield from (_walk(node, match[0], path) if match else
                        [(path, (*path, "type"), f"{kind!r} is not one of {kinds}")])
        else:
            raise KeyError(f"schema keyword {key!r} is not supported")


def validate_config(cfg: dict, sections=None) -> None:
    """Schema-check a configuration, or only its top-level ``sections``, naming the field
    of the error with the smallest key path (on a tie, the first rule in schema order)."""
    errors = list(_walk(cfg, SCHEMA if sections is None else {
        "properties": {key: SCHEMA["properties"][key] for key in sections}}))
    if errors:
        _, field, message = min(errors, key=lambda err: err[0])
        raise ConfigurationError(f"config field {'.'.join(map(str, field)) or '<root>'}: "
                                 f"{message}")


def _resolve(raw: dict) -> dict:
    """Check a configuration as written and fill in its defaults, in place: reject a
    non-finite number, a schema error, and a block setting or sweep axis that its
    one-block policy preset would ignore (a resolved config echoes the defaults)."""
    where = _nonfinite_path(raw)
    if where is not None:
        raise ConfigurationError(f"config field {where}: numbers must be finite")
    validate_config(raw)
    pol, defaults = raw.get("policy", {}), DEFAULTS["policy"]
    preset = pol.get("preset", defaults["preset"])
    swept = {axis["path"] for axis in raw.get("sweep", {}).get("axes", ())}
    for key in (("theta_level", "eta_level", "n_time_blocks", "n_age_blocks", "c", "theta",
                 "eta") if preset != "blocks" else ()):
        if pol.get(key, defaults.get(key)) != defaults.get(key) or f"policy.{key}" in swept:
            raise ConfigurationError(f"config field policy.{key}: the {preset} preset ignores it")
    _merge_defaults(raw, DEFAULTS)  # once: DEFAULTS is schema-valid
    return raw


def resolve_config(cfg: dict) -> dict:
    """Validate and fill defaults into a copy, as load_config; the canonical configuration."""
    return _resolve(copy.deepcopy(cfg))


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigurationError(f"cannot read config {path}: {err.strerror}") from err
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigurationError(f"config is not valid JSON: {err}") from err
    return _resolve(raw)  # raw is ours to fill in place


def _nonfinite_path(node, path=""):
    """Field path of the first number in a JSON document (or a result payload, whose
    rows may be tuples) that is no finite float, else None."""
    if isinstance(node, (int, float)):
        try:
            return None if math.isfinite(node) else path or "<root>"
        except OverflowError:  # an int beyond the float range
            return path or "<root>"
    try:  # a row of numbers in one pass: only a row that fails is walked
        if isinstance(node, (list, tuple)) and all(map(math.isfinite, node)):
            return None
    except (TypeError, OverflowError):
        pass
    for key, child in (node.items() if isinstance(node, dict) else
                       enumerate(node) if isinstance(node, (list, tuple)) else ()):
        if type(child) is not float or not math.isfinite(child):  # skip finite leaves
            found = _nonfinite_path(child, f"{path}.{key}" if path else str(key))
            if found is not None:
                return found
    return None


_ENCODE = json.JSONEncoder(allow_nan=False).encode  # the C encoder: items joined by ", "


def _write_json(fh, node, indent: str = "\n") -> None:
    """Write ``node`` (string keys) as ``json.dump(node, indent=2, sort_keys=True,
    allow_nan=False)`` does, piece by piece: a list of plain numbers in one
    write, everything else through this walk."""
    inner = indent + "  "
    kinds = set(map(type, node)) if isinstance(node, (list, tuple)) and node else ()
    text = ("," + inner).join(map(repr, node)) if kinds == {float} else ""
    if text and "n" not in text:  # repr of a finite float is the encoder's text and has no n
        fh.write("[" + inner + text + indent + "]")
    elif kinds and kinds <= {int, float}:  # with an int, or a float the encoder rejects
        fh.write("[" + inner + _ENCODE(node)[1:-1].replace(", ", "," + inner) + indent + "]")
    elif isinstance(node, (list, tuple, dict)) and node:
        keyed = isinstance(node, dict)
        fh.write("{" if keyed else "[")
        for n, item in enumerate(sorted(node.items()) if keyed else node):
            fh.write(("," if n else "") + inner + (_ENCODE(item[0]) + ": " if keyed else ""))
            _write_json(fh, item[1] if keyed else item, inner)
        fh.write(indent + ("}" if keyed else "]"))
    else:
        fh.write(_ENCODE(node))


def dump_config(cfg: dict, path) -> None:
    """Echo the configuration as canonical JSON (2-space indent, sorted keys, strict)."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, cfg)
        fh.write("\n")


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def sample_family(spec: dict, grid: AgeGrid, field: str) -> np.ndarray:
    """Sample the family at config ``field`` on the grid nodes (one value per cell) by its
    sampler in ``_FAMILIES``.  An overflow warns nothing: the caller rejects a value that
    is not finite."""
    kind = spec["type"]
    sampler = _FAMILIES.get(kind) if isinstance(kind, str) else None
    if sampler is None:
        raise ConfigurationError(f"unknown coefficient family {kind!r}")
    with np.errstate(all="ignore"):
        values = sampler(grid, grid.nodes, **{k: v for k, v in spec.items() if k != "type"})
    if values.shape != (grid.n_age,):
        raise ConfigurationError(f"config field {field}: {kind} family has "
                                 f"{values.size} values, grid needs {grid.n_age}")
    return values


def _table(values, field: str) -> np.ndarray:
    """A JSON table as a float array; a ragged, non-numeric, boolean or null entry is
    a config error."""
    try:
        table = np.asarray(values)  # one type for all: any text or null makes it non-numeric
        if table.dtype.kind not in "fiu" or _holds_bool(values, table):
            raise ValueError("every entry must be a JSON number")
    except ValueError as err:
        raise ConfigurationError(f"config field {field}: not a table of numbers ({err})") from err
    if not np.isfinite(table).all():
        raise ConfigurationError(f"config field {field}: values must be finite")
    return table.astype(np.float64, copy=False)


def _holds_bool(values, table: np.ndarray) -> bool:
    """Whether a true or false sits among the numbers of a 2-d JSON table.

    numpy reads them as 1 and 0, so only rows holding a 0 or a 1 can hide
    one, and only those rows' entries have their types looked at.
    """
    if table.ndim != 2:
        return False
    rows = np.flatnonzero(((table == 0) | (table == 1)).any(axis=1))
    return any(bool in set(map(type, values[k])) for k in rows)


def _check_blocks(cfg: dict, section: str) -> None:
    """Reject block counts in config ``section`` that do not divide the grid, naming the field."""
    for key, kind, cells in (("n_age_blocks", "age", "n_age"),
                             ("n_time_blocks", "time", "n_steps")):
        count = cfg[section].get(key)
        if count is not None and cfg["grid"][cells] % count:
            raise ConfigurationError(f"config field {section}.{key}: {count} {kind} blocks "
                                     f"do not divide {cells} = {cfg['grid'][cells]}")


def _named(path: str, names, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a rejection re-raised naming its config field: the key
    under ``path`` of the argument its message names first, ``names`` mapping argument
    names to keys (or listing keys named as themselves), else ``path`` itself."""
    try:
        return build(*args, **kwargs)
    except ConfigurationError as err:
        found = [(m.start(), key) for name, key in
                 (names.items() if isinstance(names, dict) else zip(names, names))
                 if (m := re.search(rf"\b{name}\b", str(err)))]
        field = f"{path}.{min(found)[1]}" if found else path
        raise ConfigurationError(f"config field {field}: {err}") from err


def _profiles(section: dict, path: str, keys, grid: AgeGrid) -> dict:
    """The age profiles ``keys`` of config ``section`` (at ``path``), sampled on the grid."""
    return {key: sample_family(section[key], grid, f"{path}.{key}") for key in keys}


def _build_kernel(spec: dict, grid: AgeGrid):
    """Contact kernel in the form its type allows: rank-one factors or a dense table."""
    if spec["type"] == "table":
        field = "epidemic.contact.values"
        return _named(field, (), table_kernel, grid, _table(spec["values"], field))
    g = (sample_family(spec["shape"], grid, "epidemic.contact.shape")
         if spec["type"] == "separable" else np.ones(grid.n_age))
    return _named("epidemic.contact", {"m0": "m0", "g": "shape"}, separable_kernel, grid,
                  spec["m0"], g)


def _build(path: str, spec: dict, cls=None):
    """``cls`` (by default the class the spec's type names) built from the spec's other keys."""
    cls = cls or _CLASSES[path.split(".")[-1]][spec["type"]]
    fields = [field.name for field in dataclasses.fields(cls)]
    return _named(path, fields, cls, **{k: v for k, v in spec.items() if k != "type"})


def policy_blocks(cfg: dict) -> np.ndarray:
    """The configured policy's (3, n_time_blocks, n_age_blocks) block values, rows c,
    theta, eta; a preset is one block at the default levels (theta 0 for full_lockdown)."""
    pol = cfg["policy"]
    if pol["preset"] == "full_lockdown":
        pol = {**pol, "theta_level": 0.0}
    _check_blocks(cfg, "policy")
    shape = (pol["n_time_blocks"], pol["n_age_blocks"])

    def table(key):
        if key not in pol:
            return np.full(shape, pol[f"{key}_level"])
        blocks = _table(pol[key], f"policy.{key}")
        if blocks.shape != shape:
            raise ConfigurationError(f"config field policy.{key}: block shape {blocks.shape} "
                                     f"!= {shape}")
        return blocks

    return np.stack([table("c"), table("theta"), table("eta")])


def step_count(count, n_age: int, field: str) -> int:
    """A step count, rounded, rejected naming ``field`` when its (count + 1, 3, n_age)
    float64 trajectory exceeds the largest array numpy can address."""
    rounded = int(round(count)) if math.isfinite(count) else count
    if not (rounded + 1) * 3 * n_age * 8 <= np.iinfo(np.intp).max:
        raise ConfigurationError(f"config field {field}: {count} steps of {n_age} age cells "
                                 "exceed the largest array numpy can address")
    return rounded


def build_scenario(cfg: dict) -> Scenario:
    """Assemble a Scenario from a resolved configuration document."""
    g = cfg["grid"]
    age_grid = _named("grid", ("a_max", "n_age"), AgeGrid, a_max=g["a_max"], n_age=g["n_age"])
    step_count(g["n_steps"], g["n_age"], "grid.n_steps")
    time_grid = _named("grid", ("n_steps",), TimeGrid.aligned, age_grid, t0=g["t0"],
                       n_steps=g["n_steps"])

    ep = cfg["epidemic"]
    rates = ("mu_S", "mu_R", "mu_I_base", "gamma", "beta", "xi")
    params = _named(
        "epidemic", rates, epi.EpiParams, grid=age_grid,
        **_profiles(ep, "epidemic", rates, age_grid), m=_build_kernel(ep["contact"], age_grid),
        saturation=_build("epidemic.saturation", ep["saturation"], epi.SaturationSpec))

    ec = cfg["economy"]
    econ = _named(
        "economy", ("alpha", "e", "delta"), economy.EconParams,
        **_profiles(ec, "economy", ("alpha", "e"), age_grid), delta=ec["delta"],
        F=_build("economy.production", ec["production"]), phi=_build("economy.phi", ec["phi"]),
        D=_build("economy.congestion", ec["congestion"]), cost_complement=ec["cost_complement"])

    ob = cfg["objective"]
    obj = _build("objective", {**ob, "utility": _build("objective.utility", ob["utility"]),
                               "j6_sign": float(ob["j6_sign"])}, objectives.ObjectiveParams)

    initial = _named("epidemic.initial", ("s", "i", "r"), epi.EpiState, age_grid,
                     **_profiles(ep["initial"], "epidemic.initial", ("s", "i", "r"), age_grid),
                     time=g["t0"])

    sr = cfg["search"]
    search = _build("search", {**sr, "theta_levels": tuple(sr["theta_levels"]),
                               "eta_levels": tuple(sr["eta_levels"])}, ControlSearchGrid)
    _check_blocks(cfg, "search")  # fail before any simulation, not in the search

    space = _named("epidemic", {"floor": "weight_floor"}, epi.hilbert_space_for, params,
                   floor=ep["weight_floor"])
    policy = expand_blocks(policy_blocks(cfg), time_grid, age_grid)
    policy.flags.writeable = False
    return Scenario(age_grid=age_grid, time_grid=time_grid, epi=params, econ=econ,
                    obj=obj, initial=initial, K0=ec["K0"], policy=policy,
                    search=search, space=space, n_floor_rel=ep["n_floor_rel"])


def build_optimizer_config(cfg: dict) -> OptimizerConfig:
    _check_blocks(cfg, "optimizer")
    ntb = cfg["optimizer"].get("n_time_blocks", 1)
    if cfg["grid"]["n_steps"] == 0 and ntb != 1:  # block means need whole rows
        raise ConfigurationError(f"config field optimizer.n_time_blocks: {ntb} time blocks "
                                 "do not divide the single policy row of a 0-step grid")
    return OptimizerConfig(**cfg["optimizer"])


def build_value_function(cfg: dict, scenario: Scenario):
    spec = cfg["verification"]["value_function"]
    grid = scenario.age_grid
    default = {"type": "constant", "value": 1.0}
    w = tuple(sample_family(spec.get(key, default), grid,
                            f"verification.value_function.{key}")
              for key in ("w1", "w2", "w3"))
    cls = LinearValue if spec["type"] == "linear" else QuadraticValue
    return cls(scenario.space, w, spec.get("q", 1.0))
