"""Command-line interface.

Subcommands: model (dump tables), space (bases, metrics, encodings),
braid (evaluate words), reichardt (iterate and trace), search (brute
force), verify (run the check suite).  All output is machine readable;
complex numbers are emitted as [re, im] pairs.

Exit codes: 0 success, 1 verification failures, 2 usage errors,
3 numeric/model errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import anyon, gates, verify
from .braids import BraidWord, evaluate_word, pseudo_unitarity_defect
from .errors import ModelError
from .labels import ModelParams, parse_label, parse_leaves
from .spaces import FusionTree, IndefSpace, QubitCode

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _jsonify(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        if obj.dtype == bool:
            return [bool(x) for x in obj]
        return [_jsonify(x) for x in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    return obj


def _emit(args, payload) -> None:
    if args.format == "csv" and isinstance(payload, dict) and "csv" in payload:
        text = payload["csv"]
    elif args.format == "pretty":
        text = json.dumps(_jsonify(payload), indent=2)
    else:
        payload = {k: v for k, v in payload.items() if k != "csv"}
        text = json.dumps(_jsonify(payload))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _params(args) -> ModelParams:
    # fractions stay exact; arbitrary-precision paths depend on it
    return ModelParams.from_string(args.alpha, args.tol)


def _add_common(sub):
    sub.add_argument("--alpha", default="12/5", help="base parameter; fractions like 12/5 stay exact")
    # a string default: argparse converts it, so a bad NSS_TOL is a usage error
    sub.add_argument("--tol", type=float, default=os.environ.get("NSS_TOL", "1e-10"))
    sub.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    sub.add_argument("--out", default=None)


def _cmd_model(args) -> int:
    params = _params(args)
    _emit(args, anyon.model_dump(params))
    return EXIT_OK


def _cmd_space(args) -> int:
    params = _params(args)
    leaves = parse_leaves(args.leaves)
    charge = parse_label(args.charge) if args.charge else leaves[0]
    space = IndefSpace.build(params, leaves, charge)
    payload = {
        "alpha": params.alpha,
        "leaves": [str(l) for l in leaves],
        "charge": str(charge),
        "dim": space.dim,
        "basis": [t.serialize() for t in space.basis],
        "metric_signs": [int(s) for s in space.metric_signs],
        "scale": space.scale,
        "computational": space.computational_mask,
    }
    n2 = len(leaves) - 1
    if bool(space.computational_mask.any()) and all(l.token() == "s" for l in leaves[1:]):
        code = QubitCode(n2 // 2)
        payload["encodings"] = {
            "".join(map(str, bits)): code.encode(bits).serialize()
            for bits in _all_bits(n2 // 2)}
    if args.encode is not None:
        code = QubitCode(len(args.encode))
        payload["encode"] = code.encode([int(b) for b in args.encode]).serialize()
    if args.decode is not None:
        code = QubitCode(n2 // 2)
        bits = code.decode(FusionTree.deserialize(args.decode))
        payload["decode"] = "noncomputational" if bits is None else "".join(map(str, bits))
    _emit(args, payload)
    return EXIT_OK


def _all_bits(n):
    for i in range(2 ** n):
        yield tuple((i >> j) & 1 for j in range(n))


def _cmd_braid(args) -> int:
    params = _params(args)
    leaves = parse_leaves(args.system)
    charge = parse_label(args.charge) if args.charge else leaves[0]
    word = BraidWord.parse(args.word)
    space = IndefSpace.build(params, leaves, charge)
    m = evaluate_word(params, leaves, word, charge=charge)
    payload = {
        "alpha": params.alpha,
        "system": [str(l) for l in leaves],
        "word": str(word),
        "matrix": m,
        "pseudo_unitarity_defect": pseudo_unitarity_defect(m, space),
        "det_modulus": float(abs(np.linalg.det(np.asarray(m, dtype=complex)))),
    }
    if space.dim == 4 and tuple(l.token() for l in leaves) == ("a", "psi", "s", "s"):
        su2, su11 = gates.leakage_norms(m)
        payload["leakage"] = {"su2": su2, "su11": su11}
    _emit(args, payload)
    return EXIT_OK


def _cmd_reichardt(args) -> int:
    params = _params(args)
    word = BraidWord.parse(args.word) if args.word else gates.W_WORD
    reports = gates.reichardt_iterate(params, word, k=args.k,
                                      extended=args.extended, dps=args.dps)
    rows = [r.as_dict() for r in reports]
    csv_lines = ["k,su2,su11,ratio_law_defect,theta1,theta2,len"]
    for r in reports:
        law = max(r.law_defect_su2 or 0.0, r.law_defect_su11 or 0.0)
        csv_lines.append(f"{r.k},{r.su2_offdiag!r},{r.su11_offdiag!r},{law!r},"
                         f"{r.theta1!r},{r.theta2!r},{r.word_length}")
    _emit(args, {"alpha": params.alpha, "word": str(word), "reports": rows,
                 "csv": "\n".join(csv_lines)})
    return EXIT_OK


def _cmd_search(args) -> int:
    if args.top < 0:
        raise ValueError("--top must be at least 0")
    params = _params(args)
    hits = gates.search_low_leakage(params, args.max_len, args.threshold,
                                    jobs=args.jobs, max_power=args.max_power)
    payload = {
        "alpha": params.alpha,
        "max_len": args.max_len,
        "threshold": args.threshold,
        "count": len(hits),
        "results": [h.report.as_dict() for h in hits[:args.top]],
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    params = _params(args)
    results = verify.run_all(params, args.seed)
    n_fail = len(verify.failures(results))
    payload = {
        "alpha": params.alpha,
        "seed": args.seed,
        "results": [r.as_dict() for r in results],
        "counts": {
            "pass": sum(r.status == "pass" for r in results),
            "fail": n_fail,
            "skipped": sum(r.status == "skipped" for r in results),
        },
    }
    _emit(args, payload)
    return EXIT_VERIFY_FAIL if n_fail else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nss",
        description="non-semisimple Ising-type anyon model: tables, spaces, "
                    "braids, leakage-suppressed gates")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="dump the tabulated data at alpha")
    _add_common(p)
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("space", help="fusion-tree basis, metric and encodings")
    _add_common(p)
    p.add_argument("--leaves", required=True, help="comma list, e.g. a,s,s,s,s")
    p.add_argument("--charge", default=None)
    p.add_argument("--encode", default=None, help="bitstring to encode")
    p.add_argument("--decode", default=None, help="tree literal to decode")
    p.set_defaults(func=_cmd_space)

    p = sub.add_parser("braid", help="evaluate a braid word")
    _add_common(p)
    p.add_argument("--system", required=True)
    p.add_argument("--charge", default=None)
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_braid)

    p = sub.add_parser("reichardt", help="iterate the leakage-suppressing recursion")
    _add_common(p)
    p.add_argument("--word", default=None, help="starting word (default: the W braid)")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--extended", action="store_true",
                   help="evaluate in arbitrary precision")
    p.add_argument("--dps", type=int, default=120)
    p.set_defaults(func=_cmd_reichardt)

    p = sub.add_parser("search", help="brute-force low-leakage words")
    _add_common(p)
    p.add_argument("--max-len", type=int, default=9)
    p.add_argument("--threshold", type=float, default=0.3)
    p.add_argument("--max-power", type=int, default=2)
    p.add_argument("--top", type=int, default=25)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="run the full property-check suite")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        sys.stdout.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return EXIT_NUMERIC
    except ValueError as exc:
        sys.stdout.write(json.dumps(
            {"error": "ValueError", "message": str(exc)}) + "\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
