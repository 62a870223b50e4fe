"""Command-line front end.

Data goes to stdout exactly as serialized; diagnostics go to stderr.  Exit
codes: 0 success (and no failed cases), 1 at least one failed case, 2 usage or
validation error.

Building the parser loads no ring: each command imports the module it runs
(`hilb grass` grassmann, `hilb lg` lagrangian, `formula` qseries, `kconj`,
`core` and `vacancy` partitions, `kschur` kschur, `verify` harness), and
`json` is imported only where JSON is read or written.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .config import FAMILIES, NS, PAIRS, ConfigError, validate_config

if TYPE_CHECKING:
    from .harness import Report
    from .partitions import Partition
    from .qseries import QPoly
    from .schur import SymVector

FORMATS = ("text", "md", "json")

# `verify` targets that name several families; any other target is one family.
VERIFY_GROUPS = {
    "identities": ["prop51", "decomp-vacant", "decomp-shifted", "vacancy"],
    "all": list(FAMILIES),
}


def _emit_qpoly(p: QPoly, fmt: str) -> str:
    if fmt == "json":
        import json

        return json.dumps(p.json_coeffs(), separators=(",", ":"))
    body = ",".join(str(c) for c in p.coeffs()) if not p.is_zero else "0"
    return f"`{body}`" if fmt == "md" else body


def _emit_scalar(value: Partition | int, fmt: str) -> str:
    """One partition or integer; JSON gives a partition as its string."""
    if fmt == "json":
        import json

        return json.dumps(value if isinstance(value, int) else str(value))
    return f"`{value}`" if fmt == "md" else str(value)


def _emit_symvector(v: SymVector, fmt: str) -> str:
    if fmt == "json":
        import json

        return json.dumps(v.to_json_obj(), separators=(",", ":"))
    rows = [(str(p) or "-", str(c)) for p, c in ((q, v.coeff(q)) for q in v.support())]
    if fmt == "md":
        lines = ["| partition | coeff |", "| --- | --- |"]
        lines += [f"| {a} | {b} |" for a, b in rows]
        return "\n".join(lines)
    return "\n".join(f"s({a}): {b}" for a, b in rows) if rows else "0"


def _emit_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    if fmt == "md":
        return report.to_markdown()
    return report.to_text()


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text", help="output format")

    parser = argparse.ArgumentParser(
        prog="qgrass",
        description="Exact partition combinatorics, q-binomial identities, and "
        "Hilbert series of filtered Grassmannian cohomology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilb", parents=[common], help="computed Hilbert series of a filtered subalgebra")
    p.add_argument("space", choices=("grass", "lg"))
    p.add_argument("--ell", type=int, help="rows of the ambient box (grass)")
    p.add_argument("--k", type=int, help="columns of the ambient box (grass)")
    p.add_argument("--n", type=int, help="staircase order (lg)")
    p.add_argument("--m", type=int, help="generation degree bound; defaults to the full ring")

    p = sub.add_parser("formula", parents=[common], help="closed-form series for a filtered subalgebra")
    p.add_argument("which", choices=("rt", "lg"))
    p.add_argument("--ell", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)

    p = sub.add_parser("kconj", parents=[common], help="k-conjugate of a k-bounded partition")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("partition")

    p = sub.add_parser("core", parents=[common], help="core of a bounded partition (or back)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--to-bounded", action="store_true",
                   help="treat the input as a (k+1)-core and apply the box-removal map")
    p.add_argument("partition")

    p = sub.add_parser("vacancy", parents=[common], help="vacancy index of a partition in a width-k box")
    p.add_argument("--ell", type=int, help="optional row bound to validate containment")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("partition")

    p = sub.add_parser("kschur", parents=[common], help="Schur expansion of a k-Schur function")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("partition")

    p = sub.add_parser("verify", parents=[common], help="run identity and conjecture sweeps")
    p.add_argument("family", choices=(*FAMILIES, *VERIFY_GROUPS))
    p.add_argument("--max", type=int, help="clamp every grid bound to this value")
    p.add_argument("--ell", type=int, help="restrict box families to one ell (with --k)")
    p.add_argument("--k", type=int, help="restrict box families to one k (with --ell)")
    p.add_argument("--n", type=int, help="restrict staircase families to one n")
    p.add_argument("--keep-going", action="store_true",
                   help="do not abort when a theorem case fails")
    p.add_argument("--config", help="JSON file with a full sweep configuration")
    return parser


def _verify_config(args) -> dict:
    if args.config:
        # the file sets the families and their grids, so no flag may narrow them
        for flag in ("--max", "--ell", "--k", "--n"):
            if getattr(args, flag[2:]) is not None:
                raise ConfigError(f"{flag} cannot be combined with --config, whose file sets every grid")
        if args.family != "all":
            raise ConfigError(f"--config runs the families its file names; give the target 'all', not {args.family!r}")
        import json

        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--config {args.config} is not valid JSON: {exc}") from None
        return validate_config(config)
    if (args.ell is None) != (args.k is None):
        raise ConfigError("--ell and --k must be given together")
    for flag, value, low in (("--max", args.max, 1), ("--ell", args.ell, 1), ("--k", args.k, 1), ("--n", args.n, 0)):
        if value is not None and value < low:
            raise ConfigError(f"{flag} must be at least {low}, got {value}")
    names = VERIFY_GROUPS.get(args.family, [args.family])
    grids = {FAMILIES[name].grid for name in names}
    for flag, value, grid, other in (
        ("--ell/--k", args.ell, PAIRS, "staircase orders n"),
        ("--n", args.n, NS, "(ell, k) boxes"),
    ):
        if value is not None and grid not in grids:
            raise ConfigError(f"{flag} does not apply to {args.family!r}, which runs over {other} only")
    families = {}
    for name in names:
        family = FAMILIES[name]
        if args.ell is not None and family.grid == PAIRS:
            families[name] = {PAIRS: [[args.ell, args.k]]}
        elif args.n is not None and family.grid == NS:
            families[name] = {NS: [args.n]}
        else:
            bound = family.default_max
            families[name] = {"max": bound if args.max is None else min(bound, args.max)}
    if args.max is not None and not any("max" in spec for spec in families.values()):
        fixed = " and ".join(flag for flag, value in (("--ell/--k", args.ell), ("--n", args.n)) if value is not None)
        raise ConfigError(f"--max clamps no family of {args.family!r}: every grid it runs is set by {fixed}")
    return validate_config({"families": families})


def _series(args) -> QPoly:
    """The Hilbert series `hilb` computes or `formula` states.  The size flags
    (the space's own, and only those) are checked before the default m is
    derived from them, so an error names only values the user gave."""
    which = args.space if args.command == "hilb" else args.which
    name = f"{args.command} {which}"
    sizes = ("--n",) if which == "lg" else ("--ell", "--k")
    takes = " and ".join(sizes)
    for flag in ("--ell", "--k", "--n"):
        given = getattr(args, flag[2:]) is not None
        if given and flag not in sizes:
            raise ValueError(f"{flag} does not apply to {name!r}, which takes {takes}")
        if not given and flag in sizes:
            raise ValueError(f"{name} requires {takes}")
    if which == "lg":
        if args.n < 1:
            raise ValueError(f"need n >= 1, got n={args.n}")
        m = args.n if args.m is None else args.m
        if args.command == "hilb":
            from .lagrangian import lg_subalgebra_hilbert as series
        else:
            from .qseries import lg_subalgebra_formula as series
        return series(args.n, m)
    if args.ell < 0 or args.k < 0:
        raise ValueError(f"need ell, k >= 0, got ell={args.ell}, k={args.k}")
    m = min(args.ell, args.k) if args.m is None else args.m
    if args.command == "hilb":
        from .grassmann import subalgebra_hilbert as series
    else:
        from .qseries import grass_subalgebra_formula as series
    return series(args.ell, args.k, m)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    fmt = args.format
    try:
        if args.command in ("hilb", "formula"):
            print(_emit_qpoly(_series(args), fmt))
        elif args.command == "kconj":
            from .partitions import Partition, k_conjugate

            print(_emit_scalar(k_conjugate(Partition.parse(args.partition), args.k), fmt))
        elif args.command == "core":
            from .partitions import Partition, bounded_from_core, core_from_bounded

            to = bounded_from_core if args.to_bounded else core_from_bounded
            print(_emit_scalar(to(Partition.parse(args.partition), args.k), fmt))
        elif args.command == "vacancy":
            from .partitions import Partition, vacancy

            if args.ell is not None and args.ell < 0:
                raise ValueError(f"--ell must be at least 0, got {args.ell}")
            lam = Partition.parse(args.partition)
            if args.ell is not None and len(lam) > args.ell:
                raise ValueError(f"{lam} has more than {args.ell} rows")
            print(_emit_scalar(vacancy(lam, args.k), fmt))
        elif args.command == "kschur":
            from .kschur import k_schur
            from .partitions import Partition

            lam = Partition.parse(args.partition)
            print(_emit_symvector(k_schur(lam, args.k), fmt))
        elif args.command == "verify":
            config = _verify_config(args)
            if args.keep_going:
                config["keep_going"] = True
            from .harness import sweep

            report = sweep(config)
            print(_emit_report(report, fmt))
            return 0 if report.ok else 1
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
