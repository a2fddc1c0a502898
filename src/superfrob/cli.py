"""Command-line front end: character tables, verification suites, expansions.

Exit codes: 0 on success, 1 on a mathematical or internal failure (including
failed verification checks), 2 on usage errors.  Data payloads are
byte-deterministic for identical configurations; verify reports additionally
carry wall-clock timings in a dedicated field that is excluded from that
contract.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from superfrob.combinat import HookProfile
from superfrob.characters import hecke_character_table, specialize_table
from superfrob.exact import Poly
from superfrob.serialize import (
    json_text,
    poly_to_string,
    poly_to_terms,
    table_payload,
    table_to_csv,
)
from superfrob.suites import SUITE_NAMES, SuiteConfig, run_suite
from superfrob.symfunc import (
    BlockVariables,
    q_bmu,
    q_tilde,
    colored_power_sum_product,
    super_hall_littlewood_q,
    super_schur,
)

DESK_SCALE_MN = 10
DESK_SCALE_DIMENSION = 200_000
# the verify suites charged (k+l)^n: relations and frobenius act on the tensor space,
# identities builds none, but its super-schur-dual tableaux grow like (k+l)^n
TENSOR_SUITES = ("relations", "frobenius", "identities", "all")


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_shape(parser: argparse.ArgumentParser, text: str):
    """The multipartition in --shape; each part list must be a partition ([] is empty)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    # parts must be JSON integers, not floats, booleans or strings of digits
    if not isinstance(data, list) or not all(
        isinstance(component, list) and all(type(p) is int for p in component)
        for component in data
    ):
        parser.error(f"--shape must be a JSON list of part lists, got {text!r}")
    shape = tuple(tuple(component) for component in data)
    for component in shape:
        if any(p < 1 for p in component) or any(
            a < b for a, b in zip(component, component[1:])
        ):
            parser.error(f"--shape parts must be positive and weakly decreasing, got {text!r}")
    return shape


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superfrob",
        description=(
            "Exact character tables of cyclotomic Hecke algebras via the trace "
            "identity in supersymmetric functions, with built-in verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chartable = sub.add_parser("chartable", help="compute a character table")
    chartable.add_argument("--m", type=int, required=True, help="number of colors")
    chartable.add_argument("--n", type=int, required=True, help="rank")
    chartable.add_argument(
        "--specialize", action="store_true", help="substitute q -> 1, Q_i -> zeta^i"
    )
    _common_output_flags(chartable, formats=True, verbose=True)
    chartable.set_defaults(handler=cmd_chartable)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("--suite", choices=SUITE_NAMES, required=True)
    verify.add_argument("--m", type=int, default=1)
    verify.add_argument("--n", type=int, default=2)
    verify.add_argument("--k", type=_comma_ints, default=None, help="comma list, one per color")
    verify.add_argument("--l", type=_comma_ints, default=None, help="comma list, one per color")
    _common_output_flags(verify, verbose=True)
    verify.set_defaults(handler=cmd_verify)

    expand = sub.add_parser("expand", help="expand a single symmetric function")
    expand.add_argument(
        "target", choices=("superschur", "hl", "qbmu", "ptilde", "qtilde")
    )
    expand.add_argument("--shape", type=str, default=None, help="JSON nested arrays")
    expand.add_argument("--a", type=int, default=None, help="degree for hl")
    expand.add_argument("--alpha", type=_comma_ints, default=None)
    expand.add_argument("--beta", type=_comma_ints, default=None)
    expand.add_argument("--k", type=_comma_ints, default=None)
    expand.add_argument("--l", type=_comma_ints, default=None)
    _common_output_flags(expand, formats=True)
    expand.set_defaults(handler=cmd_expand)

    return parser


def _common_output_flags(
    sub: argparse.ArgumentParser, formats: bool = False, verbose: bool = False
):
    """--out and --force everywhere; --format and --verbose where the handler reads them."""
    if formats:
        sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", type=str, default=None, help="write output to a file")
    sub.add_argument("--force", action="store_true", help="override the desk-scale guard")
    if verbose:
        sub.add_argument("--verbose", action="store_true")


def _check_out(parser, out: str):
    """Refuse an --out that is a directory or has no parent directory, before any work.

    The error is the one the write would meet: ENOTDIR when the nearest
    existing ancestor is not a directory, ENOENT when it is one.
    """
    path = Path(out)
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        ancestor = next(p for p in path.parents if p.exists())
        code = errno.ENOENT if ancestor.is_dir() else errno.ENOTDIR
    else:
        return
    parser.error(f"cannot write --out {out!r}: {os.strerror(code)}")


def _emit(parser, text: str, out: str | None):
    """Write text to --out, or to stdout; a path that still cannot be written is a usage error."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as err:
        parser.error(f"cannot write --out {out!r}: {err.strerror}")


def _guard(parser, args, m: int, n: int, charged: str, base: int):
    """Refuse m*n, then the charged quantity base^n (named `charged`), above the caps."""
    if m * n > DESK_SCALE_MN and not args.force:
        parser.error(
            f"m*n = {m * n} exceeds the desk-scale cap {DESK_SCALE_MN}; pass --force to override"
        )
    _guard_dimension(parser, args, charged, base, n)


def _guard_dimension(parser, args, charged: str, base: int, exponent: int):
    """Refuse the charged quantity base^exponent (named `charged`) above the desk-scale cap."""
    # any base >= 2 passes the cap by the power cap.bit_length(), so the test powers no further
    bound = DESK_SCALE_DIMENSION.bit_length()
    if args.force or base <= 1 or base ** min(exponent, bound) <= DESK_SCALE_DIMENSION:
        return
    parser.error(
        f"{charged} = {base**exponent} exceeds the cap {DESK_SCALE_DIMENSION}; pass --force to override"
    )


def _resolve_profile(parser, args, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    bk = args.k if args.k is not None else (1,) * m
    bl = args.l if args.l is not None else (1,) * m
    if len(bk) == 1 and m > 1:
        bk = bk * m
    if len(bl) == 1 and m > 1:
        bl = bl * m
    if len(bk) != m or len(bl) != m:
        parser.error(f"--k/--l must list one entry per color (m = {m})")
    if any(v < 0 for v in bk + bl):
        parser.error("--k/--l entries must be nonnegative")
    return bk, bl


def cmd_chartable(args, parser) -> int:
    if args.m < 1 or args.n < 1:
        parser.error("chartable needs --m >= 1 and --n >= 1")
    _guard(parser, args, args.m, args.n, "(m*n)^n", args.m * args.n)
    if args.verbose:
        print(f"solving H_({args.m},{args.n}) character table", file=sys.stderr)
    table = hecke_character_table(args.m, args.n)
    if args.specialize:
        table = specialize_table(table)
    if args.format == "csv":
        _emit(parser, table_to_csv(table), args.out)
    else:
        _emit(parser, json_text(table_payload(table)), args.out)
    return 0


def cmd_verify(args, parser) -> int:
    if args.m < 1 or args.n < 1:
        parser.error("verify needs --m >= 1 and --n >= 1")
    bk, bl = _resolve_profile(parser, args, args.m)
    # the orthogonality suite builds no tensor and never reads --k/--l, so only
    # the m*n cap applies to it
    width = 0
    if args.suite in TENSOR_SUITES:
        width = sum(bk) + sum(bl)
        if width == 0:
            parser.error("the verification profile needs at least one variable")
    _guard(parser, args, args.m, args.n, "(k+l)^n", width)
    config = SuiteConfig(m=args.m, n=args.n, bk=bk, bl=bl)
    if args.verbose:
        print(f"running suite {args.suite} at {config}", file=sys.stderr)
    results = run_suite(args.suite, config)
    report = {
        "suite": args.suite,
        "config": {"m": args.m, "n": args.n, "k": list(bk), "l": list(bl)},
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "timing_seconds": {r.name: round(r.seconds, 6) for r in results},
        "passed": all(r.passed for r in results),
    }
    _emit(parser, json_text(report), args.out)
    return 0 if report["passed"] else 1


def _poly_payload(f: Poly, zeta_order: int | None, label: str) -> dict:
    return {
        "target": label,
        "registry": list(f.registry.names()),
        "zeta_order": zeta_order,
        "terms": poly_to_terms(f),
        "string": poly_to_string(f),
    }


def _expand_profile(parser, args, m: int) -> HookProfile:
    """The --k/--l profile on m colors, refused unless it has a variable to expand in."""
    bk, bl = _resolve_profile(parser, args, m)
    if sum(bk) + sum(bl) == 0:
        parser.error("--k/--l must give the profile at least one variable")
    return HookProfile(bk, bl)


def cmd_expand(args, parser) -> int:
    target = args.target
    if target == "hl":
        if args.a is None or args.a < 0:
            parser.error("expand hl needs --a >= 0")
        # checked per entry: a negative entry would cancel a positive one in the sums
        if any(v < 0 for v in (args.k or ()) + (args.l or ())):
            parser.error("--k/--l entries must be nonnegative")
        k = sum(args.k) if args.k else 0
        l = sum(args.l) if args.l else 0
        if k + l == 0:
            parser.error("expand hl needs --k or --l")
        # the series recursion forms up to a^2 products, however few variables there are
        _guard_dimension(parser, args, "a^2", args.a, 2)
        _guard_dimension(parser, args, "(k+l)^a", k + l, args.a)
        block = BlockVariables(HookProfile((k,), (l,)), extra=("t",))
        t = Poly.var(block.registry, "t")
        value = super_hall_littlewood_q(
            args.a, block.x_polys(1), block.y_polys(1), t, block.registry
        )
        payload = _poly_payload(value, None, f"hl a={args.a}")
    elif target == "qtilde":
        if args.alpha is None and args.beta is None:
            parser.error("expand qtilde needs --alpha and/or --beta")
        # the color count is the longer of --k and --l; a one-entry list broadcasts
        profile = _expand_profile(parser, args, max(len(args.k or ()), len(args.l or ()), 1))
        alpha = args.alpha if args.alpha is not None else (0,) * profile.k
        beta = args.beta if args.beta is not None else (0,) * profile.l
        if len(alpha) != profile.k or len(beta) != profile.l:
            parser.error("--alpha/--beta lengths must match the profile")
        if any(v < 0 for v in alpha + beta) or sum(alpha) + sum(beta) == 0:
            parser.error("--alpha/--beta entries must be nonnegative with a positive total")
        block = BlockVariables(profile)
        value = q_tilde(alpha, beta, block)
        payload = _poly_payload(value, None, "qtilde")
    else:
        if args.shape is None:
            parser.error(f"expand {target} needs --shape")
        bshape = _parse_shape(parser, args.shape)
        if not bshape:
            parser.error("--shape must list at least one color")
        m = len(bshape)
        n = sum(sum(c) for c in bshape)
        profile = _expand_profile(parser, args, m)
        _guard(parser, args, m, max(n, 1), "(k+l)^n", profile.k + profile.l)
        block = BlockVariables(profile)
        if target == "superschur":
            # non-hook shapes legitimately expand to the zero polynomial
            value = super_schur(bshape, block)
            payload = _poly_payload(value, None, "superschur")
        elif target == "qbmu":
            value = q_bmu(bshape, block)
            payload = _poly_payload(value, None, "qbmu")
        elif target == "ptilde":
            value = colored_power_sum_product(bshape, block)
            payload = _poly_payload(value, m, "ptilde")
        else:  # pragma: no cover - argparse restricts choices
            parser.error(f"unknown target {target}")
    if args.format == "csv":
        _emit(parser, payload["string"] + "\n", args.out)
    else:
        _emit(parser, json_text(payload), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out:
        _check_out(parser, args.out)
    try:
        return args.handler(args, parser)
    except SystemExit:
        raise
    except Exception as err:
        print(f"superfrob: internal failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
