"""Sweep configuration: the check families, their grids, and config validation.

This is the half of `harness` that names families and checks configs but
computes nothing, so it imports no ring: the CLI builds its parser and
checks a `verify` config from it alone, and `harness` reads its families.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

# Grid kinds, each also the config key of an explicit grid.
PAIRS = "pairs"  # (ell, k) boxes
NS = "ns"  # staircase orders n


class Family(NamedTuple):
    """One check family: its grid kind, how a grid point expands into task
    parameters, the names of the checks run on each parameter set, the grid
    bound `max` of the default sweep, and the smallest staircase order n its
    grid may name."""

    name: str
    grid: str
    expand: Callable[..., list[dict]]
    checks: tuple[str, ...]
    default_max: int
    min_n: int = 0


def _box(ell: int, k: int) -> list[dict]:
    return [{"ell": ell, "k": k}]


def _box_up_to_min(var: str) -> Callable[[int, int], list[dict]]:
    return lambda ell, k: [{"ell": ell, "k": k, var: v} for v in range(1, min(ell, k) + 1)]


def _order(n: int) -> list[dict]:
    return [{"n": n}]


# Report order.  Checks are named rather than referenced so that each one is
# looked up in `harness` when a sweep builds its tasks: rebinding a `check_*`
# attribute of that module (as a tracer does) reaches the sweep.
FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family("summand", PAIRS, _box_up_to_min("i"), ("check_summand_identity",), default_max=6),
        Family("rt", PAIRS, _box, ("check_rt",), default_max=6),
        Family("h-basis", PAIRS, _box_up_to_min("m"), ("check_h_basis",), default_max=4),
        Family("kschur-basis", PAIRS, _box_up_to_min("m"), ("check_kschur_basis",), default_max=4),
        Family("lg", NS, _order, ("check_lg", "check_lg_top_power"), default_max=8, min_n=1),
        Family("prop51", NS, _order, ("check_prop51",), default_max=30),
        Family("decomp-vacant", PAIRS, _box, ("check_vacant_roundtrip",), default_max=6),
        Family("decomp-shifted", NS, _order, ("check_shifted_roundtrip",), default_max=9),
        Family("vacancy", PAIRS, _box, ("check_vacancy_conjugation",), default_max=6),
    )
}

DEFAULT_CONFIG: dict = {"families": {f.name: {"max": f.default_max} for f in FAMILIES.values()}}


class ConfigError(ValueError):
    pass


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _grid_points(family: Family, spec: dict) -> list[tuple]:
    """The grid points of one family spec: the non-empty list under the
    family's grid key, or every box or order up to `max`, never both."""
    grid = family.grid
    if grid in spec:
        if "max" in spec:
            raise ConfigError(f"family {family.name!r} spec gives both 'max' and {grid!r}; give one")
        points = spec[grid]
        if grid == PAIRS:
            if not isinstance(points, list) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 and all(_is_int(x) and x >= 1 for x in p)
                for p in points
            ):
                raise ConfigError(f"'pairs' must be a list of [ell, k] integer pairs, got {points!r}")
        elif not isinstance(points, list) or not all(_is_int(x) and x >= 0 for x in points):
            raise ConfigError(f"'ns' must be a list of nonnegative integers, got {points!r}")
        if not points:
            raise ConfigError(f"family {family.name!r} spec names no grid point: {grid!r} is empty")
        points = [tuple(p) for p in points] if grid == PAIRS else [(n,) for n in points]
    else:
        maximum = spec.get("max")
        if not _is_int(maximum) or maximum < 1:
            raise ConfigError(f"family spec needs 'max' >= 1 or explicit {grid!r}, got {spec!r}")
        sizes = range(1, maximum + 1)
        points = [(ell, k) for ell in sizes for k in sizes] if grid == PAIRS else [(n,) for n in sizes]
    if grid == NS:
        for (n,) in points:
            if n < family.min_n:
                raise ConfigError(f"family {family.name!r} needs n >= {family.min_n}, got n={n}")
    return points


def validate_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise ConfigError(f"config must be a JSON object, got {type(config).__name__}")
    unknown = set(config) - {"families", "keep_going"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    families = config.get("families", {})
    if not isinstance(families, dict):
        raise ConfigError("'families' must be an object")
    bad = set(families) - set(FAMILIES)
    if bad:
        raise ConfigError(f"unknown families: {sorted(bad)}; known: {list(FAMILIES)}")
    keep_going = config.get("keep_going", False)
    if not isinstance(keep_going, bool):
        raise ConfigError(f"'keep_going' must be a boolean, got {keep_going!r}")
    for name, spec in families.items():
        if not isinstance(spec, dict):
            raise ConfigError(f"family {name!r} spec must be an object, got {spec!r}")
        grid = FAMILIES[name].grid
        unknown = sorted(set(spec) - {"max", grid})
        if unknown:
            raise ConfigError(f"family {name!r} spec has unknown keys {unknown}; it takes only 'max' and {grid!r}")
        _grid_points(FAMILIES[name], spec)
    return config
