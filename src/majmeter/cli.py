"""Command-line front end: batch computations and CSV/JSON emission.

Each subcommand takes only the shared flags its cmd_* function reads
(`--output` everywhere; `--format`, `--strict`, `--seed`, `--exact-cap` and
the `--quad-*` flags where they are used); any other flag is a usage error.
The parser is built once per process and reads no environment. The file
named by MAJMETER_CONFIG is read on every `main` call, after parsing, and
fills in the settable flags the command line left out: flag, then config
file, then built-in default. A config key for a flag the subcommand does not
take is ignored, since one file serves every subcommand.

Exit codes: 0 success, 2 usage or parse failure (including a bad
MAJMETER_CONFIG file), 3 resource cap exceeded or out of memory, 4 domain or
range violation or a quadrature that did not converge.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import os
import sys
from fractions import Fraction

from . import asymptotics, exact_dist, families, tableaux
from .asymptotics import DEFAULT_QUAD, QuadratureConfig
from .errors import (
    CapExceeded,
    DegenerateDistribution,
    DegenerateParameter,
    DomainError,
    EmptyPartition,
    InvalidRow,
    InvalidSimplexPoint,
    OutOfRange,
    QuadratureError,
    ZeroAtomUnsupported,
)
from .partitions import (
    ThomaParam,
    hook_multiset_identity,
    measure_of,
    parse_partition,
    partitions_of,
    thoma_embed,
)

CONFIG_ENV = "MAJMETER_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_DOMAIN = 4

_USAGE_ERRORS = (EmptyPartition, InvalidRow, InvalidSimplexPoint, ValueError)
_DOMAIN_ERRORS = (OutOfRange, DomainError, DegenerateParameter, ZeroAtomUnsupported,
                  QuadratureError)

# MAJMETER_CONFIG key -> (flag dest, built-in default)
_CONFIG_KEYS = {
    "quad.nodes": ("quad_nodes", DEFAULT_QUAD.nodes),
    "quad.rel_tol": ("quad_tol", DEFAULT_QUAD.rel_tol),
    "quad.max_doublings": ("quad_max_doublings", DEFAULT_QUAD.max_doublings),
    "exact_cap": ("exact_cap", exact_dist.BIGINT_CAP),
    "seed": ("seed", 0),
}

# the flags subcommands share; those with a config key parse to None when
# absent and are filled in by `parse_args`
_SHARED_FLAGS = {
    "--output": {"help": "write to this path instead of stdout"},
    "--format": {"choices": ("csv", "json"), "default": "csv"},
    "--quad-nodes": {"type": int},
    "--quad-tol": {"type": float},
    "--quad-max-doublings": {"type": int},
    "--seed": {"type": int},
    "--exact-cap": {"type": int},
    "--strict": {"action": "store_true", "help": "reject partitions that are not sorted"},
}
_QUAD_FLAGS = ("--quad-nodes", "--quad-tol", "--quad-max-doublings")


def _fmt(x) -> str:
    """Floats at 17 significant digits, rationals as p/q, None as an empty
    field, the rest via str."""
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return str(x)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return _fmt(obj)
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _write(args, text: str, mode: str = "w"):
    if args.output:
        with open(args.output, mode) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _quad_from(args) -> QuadratureConfig:
    try:
        return QuadratureConfig(
            nodes=args.quad_nodes,
            max_doublings=args.quad_max_doublings,
            rel_tol=args.quad_tol,
        )
    except ValueError as exc:
        raise ValueError(
            f"bad --quad-nodes/--quad-tol/--quad-max-doublings setting: {exc}"
        ) from None


def _load_config() -> dict:
    """Flag dest -> value from the MAJMETER_CONFIG file ({} when unset)."""
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{CONFIG_ENV}={path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{CONFIG_ENV}={path}: expected a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(
            f"{CONFIG_ENV}={path}: unknown key(s) {', '.join(unknown)}; "
            f"known keys are {', '.join(_CONFIG_KEYS)}"
        )
    config = {}
    for key, value in raw.items():
        dest, default = _CONFIG_KEYS[key]
        kind = type(default)
        try:
            if isinstance(value, str):  # read as on the command line
                value = kind(value)
            elif isinstance(value, bool) or not isinstance(value, (int, kind)):
                raise ValueError
        except ValueError:
            raise ValueError(
                f"{CONFIG_ENV}={path}: {key} must be {kind.__name__}, got {value!r}"
            ) from None
        config[dest] = value
    return config


def _parse_n_list(text: str) -> list[int]:
    values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"--n needs at least one size, got {text!r}")
    return values  # each n >= 1 is checked where the family builds its shape


def _omega_from_json(text: str) -> ThomaParam:
    return ThomaParam.from_json(json.loads(text))


def _d_kol(poly):
    """Kolmogorov distance to the normal law, or None for a single-point law
    (nothing to standardise)."""
    try:
        return exact_dist.kolmogorov_distance_to_normal(poly)
    except DegenerateDistribution:
        return None


def _dist_json(payload: dict) -> str:
    """json.dumps(payload, default=_json_default, indent=2), with the list of
    coefficient strings (decimal digits, never empty) joined in directly: any
    indent sends json to its pure-Python encoder, one call per item."""
    text = json.dumps({**payload, "coeffs": None}, default=_json_default, indent=2)
    coeffs = '[\n    "' + '",\n    "'.join(payload["coeffs"]) + '"\n  ]'
    return text.replace('"coeffs": null', '"coeffs": ' + coeffs, 1)


def cmd_dist(args) -> int:
    lam = parse_partition(args.partition, strict=args.strict)
    poly = exact_dist.maj_polynomial(lam, exact_cap=args.exact_cap)
    lo, hi = exact_dist.range_maj(lam)
    d_kol = _d_kol(poly)
    payload = {
        "partition": list(lam.rows),
        **poly.to_json(),
        "count": str(poly.at_one()),
        "mean": exact_dist.mean_maj(lam),
        "variance": exact_dist.var_maj(lam),
        "range": [lo, hi],
        "d_kol": d_kol,
    }
    if args.format == "json":
        _write(args, _dist_json(payload) + "\n")
    else:
        lines = [f"# partition={','.join(map(str, lam.rows))}"]
        for key in ("count", "mean", "variance", "range", "d_kol"):
            if key == "range":
                lines.append(f"# range={lo}:{hi}")
            else:
                lines.append(f"# {key}={_fmt(payload[key])}")
        lines.append("maj,count")
        for m, c in enumerate(payload["coeffs"], start=poly.offset):
            lines.append(f"{m},{c}")
        _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_cumulants(args) -> int:
    if args.max_order < 1:
        raise ValueError(f"--max-order must be >= 1, got {args.max_order}")
    lam = parse_partition(args.partition, strict=args.strict)
    lines = ["order,exact,predicted"]
    lines.append(f"1,{_fmt(exact_dist.mean_maj(lam))},")
    for r in range(2, args.max_order + 1):
        exact = exact_dist.exact_cumulant(lam, r)
        predicted = exact_dist.predicted_cumulant(lam, r)
        lines.append(f"{r},{_fmt(exact)},{_fmt(predicted)}")
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sample(args) -> int:
    lam = parse_partition(args.partition, strict=args.strict)
    counts = tableaux.maj_histogram_mc(lam, args.trials, args.seed)
    lines = [
        f"# partition={','.join(map(str, lam.rows))}",
        f"# trials={args.trials}",
        f"# seed={args.seed}",
        f"# rng={tableaux.RNG_NAME}",
        "maj,count",
    ]
    for value in sorted(counts):
        lines.append(f"{value},{counts[value]}")
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_ld(args) -> int:
    build, limit_omega = families.family(args.family)
    if args.omega is not None:
        limit_omega = _omega_from_json(args.omega)
    mu_limit = measure_of(limit_omega)
    y = families.parse_fraction(args.y, "--y")
    try:
        y_float = float(y)
    except OverflowError:  # past float range: ld_estimate rejects it as out of range
        y_float = math.inf if y > 0 else -math.inf
    quad = _quad_from(args)
    header, mode = "n,exact_tail,estimate,rate,ratio\n", "w"
    for n in _parse_n_list(args.n):
        lam = build(n)
        mu_n = measure_of(thoma_embed(lam))
        report = asymptotics.ld_estimate(
            mu_n, mu_limit, y_float, n, side=args.side, quad=quad
        )
        exact_text = ""
        ratio_text = ""
        if n <= args.exact_cap:
            poly = exact_dist.maj_polynomial(lam, exact_cap=args.exact_cap)
            mean = exact_dist.mean_maj(lam)
            if args.side == "upper":
                threshold = math.ceil(mean + y * n * n)
            else:
                threshold = math.floor(mean - y * n * n)
            tail = exact_dist.tail_probability(poly, threshold, args.side)
            exact_text = _fmt(float(tail))
            ratio_text = _fmt(float(tail) / report.estimate)
        row = f"{n},{exact_text},{_fmt(report.estimate)},{_fmt(report.rate)},{ratio_text}\n"
        _write(args, header + row, mode)  # row by row: an n that fails keeps the rows before it
        header, mode = "", "a"
    return EXIT_OK


def cmd_bkol(args) -> int:
    build, _ = families.family(args.family)
    lines = ["n,d_kol,bound,hypothesis_ok"]
    for n in _parse_n_list(args.n):
        lam = build(n)
        bound, ok = asymptotics.berry_esseen_bound(lam)
        poly = exact_dist.maj_polynomial(lam, exact_cap=args.exact_cap)
        lines.append(f"{n},{_fmt(_d_kol(poly))},{_fmt(bound)},{str(ok).lower()}")
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_bochner(args) -> int:
    omega = _omega_from_json(args.omega)
    xis = [float(tok) for tok in args.xis.split(",") if tok.strip()]
    matrix, smallest = asymptotics.bochner_check(measure_of(omega), xis, _quad_from(args))
    payload = {"xis": xis, "matrix": matrix, "min_eigenvalue": smallest}
    _write(args, json.dumps(payload, default=_json_default, indent=2) + "\n")
    return EXIT_OK


def _laws(max_n: int):
    """(partition, (partition, maj polynomial, moment-route cumulants 1..6))
    for each partition of 1..max_n, so that every check shares one law."""
    for n in range(1, max_n + 1):
        for lam in partitions_of(n):
            poly = exact_dist.maj_polynomial(lam)
            yield lam, (lam, poly, exact_dist.cumulants_from_polynomial(poly, 6))


def _permutations(max_n: int):
    """(permutation, (permutation,)) for each permutation of 1..5, whatever max_n."""
    return [(p, (p,)) for n in range(1, 6) for p in itertools.permutations(range(1, n + 1))]


def _rsk_keeps_descents(images) -> bool:
    p, q = tableaux.rsk(images)
    return tableaux.perm_descents(images) == tableaux.descent_set(q) and p.shape == q.shape


# (identity name, cases, check) in output order. Module functions are looked
# up at call time, so a test can replace one.
_IDENTITIES = (
    ("hook-content-multiset", _laws,
     lambda lam, poly, kappa: operator.eq(*hook_multiset_identity(lam, lam.n))),
    ("polynomial-vs-enumeration", _laws,
     lambda lam, poly, kappa: tableaux.maj_multiset(lam)
     == {poly.offset + i: c for i, c in enumerate(poly.coeffs) if c}),
    ("cumulant-two-routes", _laws,
     lambda lam, poly, kappa: all(
         exact_dist.exact_cumulant(lam, r) == kappa[r - 1] for r in range(2, 7))),
    ("mean-closed-form", _laws, lambda lam, poly, kappa: exact_dist.mean_maj(lam) == kappa[0]),
    ("variance-closed-form", _laws,
     lambda lam, poly, kappa: exact_dist.var_maj(lam) == exact_dist.exact_cumulant(lam, 2)),
    ("range-vs-support", _laws,
     lambda lam, poly, kappa: exact_dist.range_maj(lam) == poly.support()),
    ("rsk-descent-preservation", _permutations, _rsk_keeps_descents),
)


def cmd_validate(args) -> int:
    if not 1 <= args.max_n <= 12:
        raise ValueError(f"validate sweeps need 1 <= max_n <= 12, got {args.max_n}")
    cases, first_fail = {}, {}
    for name, domain, holds in _IDENTITIES:
        if domain not in cases:
            cases[domain] = list(domain(args.max_n))
        for label, case in cases[domain]:
            if not holds(*case):
                first_fail.setdefault(name, label)
    lines = [
        f"{name}: FAIL at {first_fail[name]!r}" if name in first_fail else f"{name}: PASS"
        for name, _, _ in _IDENTITIES
    ]
    lines.append(f"partitions checked: {len(cases[_laws])}")
    lines.append(f"failures: {len(first_fail)}")
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK if not first_fail else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; it reads no environment."""
    parser = argparse.ArgumentParser(
        prog="majmeter",
        description="Exact and asymptotic statistics of the major index of "
        "uniform random standard Young tableaux.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, shared: tuple[str, ...], help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for flag in ("--output", *shared):
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    p = command("dist", ("--format", "--exact-cap", "--strict"), "exact maj distribution")
    p.add_argument("-p", "--partition", required=True)

    p = command("cumulants", ("--strict",), "exact and predicted cumulants")
    p.add_argument("-p", "--partition", required=True)
    p.add_argument("--max-order", type=int, default=6)

    p = command("sample", ("--strict", "--seed"), "hook-walk Monte Carlo histogram")
    p.add_argument("-p", "--partition", required=True)
    p.add_argument("--trials", type=int, required=True)

    p = command("ld", (*_QUAD_FLAGS, "--exact-cap"), "large-deviation sweep over n")
    p.add_argument("--family", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--n", required=True, help="comma-separated sizes")
    p.add_argument("--side", choices=("upper", "lower"), default="upper")
    p.add_argument("--omega", help="JSON Thoma parameter overriding the family limit")

    p = command("bkol", ("--exact-cap",), "Kolmogorov distance sweep")
    p.add_argument("--family", required=True)
    p.add_argument("--n", required=True, help="comma-separated sizes")

    p = command("bochner", _QUAD_FLAGS, "nonnegative-definiteness probe")
    p.add_argument("--omega", required=True, help="JSON Thoma parameter")
    p.add_argument("--xis", required=True, help="comma-separated frequencies")

    p = command("validate", (), "identity cross-checks")
    p.add_argument("--max-n", type=int, default=8)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse argv, then fill each settable flag the command line left out
    from MAJMETER_CONFIG or, failing that, its built-in default."""
    args = build_parser().parse_args(argv)
    config = _load_config()
    for dest, default in _CONFIG_KEYS.values():
        if dest in vars(args) and getattr(args, dest) is None:
            setattr(args, dest, config.get(dest, default))
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        # looked up by name at call time, so that a wrapper installed on a
        # cmd_* function after the parser was built still runs
        return globals()[f"cmd_{args.command}"](args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:  # e.g. a family shape too large to build, such as staircase(10^20)
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAP
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
