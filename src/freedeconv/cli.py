"""Command-line front end.

Subcommands cover partition debugging, series transforms, forward moment
computation for both models, parameter recovery, spectral densities, Monte
Carlo verification, and an end-to-end identifiability check.  Structured
data travels as JSON, curves and eigenvalue dumps as CSV.  Domain errors
exit with status 1 and a machine-readable {code, message, module} object on
stderr; usage errors (unknown flags, bad inputs, unwritable outputs) exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import FreeDeconvError
from .models import (
    CwModel,
    SpnModel,
    cw_moments,
    cw_recover_eigenvalues,
    spn_moments,
    spn_recover,
    verify_identifiability,
)
from .series import (
    FLOAT,
    RATIONAL,
    MomentSeries,
    boxed_conv,
    free_add_conv,
    free_mult_deconv,
    r_transform,
)

# The non-crossing partitions, numpy and the analytic and Monte Carlo layers
# load inside the commands that use them: only spn-density and simulate
# load numpy.  ``series`` and ``models`` load with this module:
# perfbench/cli_child.py wraps their functions once it has imported it.


def _int_at_least(low: int):
    """An argparse type for integers no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freedeconv",
        description="Spectral moments and parameter recovery for compound "
        "Wishart and signal-plus-noise random matrix models.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_nc = sub.add_parser("nc", help="enumerate non-crossing partitions")
    p_nc.add_argument("--n", type=int, required=True)
    p_nc.add_argument("--kreweras", action="store_true",
                      help="include each partition's Kreweras complement")
    p_nc.add_argument("--out", type=Path)

    p_conv = sub.add_parser("convolve", help="series transforms")
    p_conv.add_argument("verb", choices=["boxed", "boxplus", "deconv", "rtransform"])
    p_conv.add_argument("--f", type=Path, required=True, help="first series JSON")
    p_conv.add_argument("--g", type=Path, help="second series JSON (binary verbs)")
    p_conv.add_argument("--out", type=Path)

    p_cwm = sub.add_parser("cw-moments", help="compound Wishart moment series")
    p_cwm.add_argument("--model", type=Path, required=True)
    p_cwm.add_argument("--order", type=int, default=8)
    p_cwm.add_argument("--backend", choices=[RATIONAL, FLOAT], default=RATIONAL)
    p_cwm.add_argument("--out", type=Path)

    p_cwr = sub.add_parser("cw-recover", help="spectrum of D from a cumulant series")
    p_cwr.add_argument("--r", type=Path, required=True,
                       help="cumulant (R-transform) series JSON")
    p_cwr.add_argument("--p", type=int, required=True)
    p_cwr.add_argument("--d", type=int, required=True)
    p_cwr.add_argument("--out", type=Path)

    p_spm = sub.add_parser("spn-moments", help="signal-plus-noise moment series")
    p_spm.add_argument("--model", type=Path, required=True)
    p_spm.add_argument("--order", type=int, default=8)
    p_spm.add_argument("--backend", choices=[RATIONAL, FLOAT], default=RATIONAL)
    p_spm.add_argument("--out", type=Path)

    p_spr = sub.add_parser("spn-recover",
                           help="recover (sigma^2, spectrum of A*A) from moments")
    p_spr.add_argument("--moments", type=Path, required=True)
    p_spr.add_argument("--p", type=int, required=True)
    p_spr.add_argument("--d", type=int, required=True)
    p_spr.add_argument("--out", type=Path)

    p_dens = sub.add_parser("spn-density", help="spectral density by Stieltjes inversion")
    p_dens.add_argument("--model", type=Path, required=True)
    p_dens.add_argument("--xmin", type=float, required=True)
    p_dens.add_argument("--xmax", type=float, required=True)
    p_dens.add_argument("--points", type=_int_at_least(1), default=1000)
    p_dens.add_argument("--epsilon", type=float, default=1e-3)
    p_dens.add_argument("--tol", type=float, default=1e-12)
    p_dens.add_argument("--out", type=Path,
                        help="CSV target; the JSON sidecar lands next to it")

    p_sim = sub.add_parser("simulate", help="Monte Carlo moments vs. model predictions")
    p_sim.add_argument("--model", type=Path, required=True)
    p_sim.add_argument("--kind", choices=["cw", "spn"], required=True)
    p_sim.add_argument("--dim-scale", type=int, default=1,
                       help="replicate the spectrum this many times")
    p_sim.add_argument("--trials", type=_int_at_least(1), default=10)
    p_sim.add_argument("--seed", type=_int_at_least(0), default=42)
    p_sim.add_argument("--order", type=int, default=8)
    p_sim.add_argument("--field", choices=["real", "complex"], default="real")
    p_sim.add_argument("--dump-eigs", type=Path, help="CSV eigenvalue dump")
    p_sim.add_argument("--out", type=Path)

    p_ver = sub.add_parser("verify", help="compare two signal-plus-noise models")
    p_ver.add_argument("--a", type=Path, required=True)
    p_ver.add_argument("--b", type=Path, required=True)
    p_ver.add_argument("--order", type=int, default=8)
    p_ver.add_argument("--out", type=Path)

    return parser


def _read_json(path: Path) -> dict:
    """The JSON in the regular file ``path`` (a FIFO or device is refused).
    Text that is not JSON, or not UTF-8, is a JSONDecodeError at its first
    bad character or byte; text nested too deep for the parser has no such
    position, and is an OSError that names the file."""
    if not path.is_file():
        raise FileNotFoundError(f"input file not found: {path}")
    data = path.read_bytes()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        raise json.JSONDecodeError(f"byte {data[exc.start]:#04x} is not UTF-8", head,
                                   len(head)) from None
    except RecursionError:
        raise OSError(f"{path}: JSON nested too deep to read") from None


def _emit(payload: dict, out: Path | None) -> None:
    text = json.dumps(payload, indent=2)
    if out is None:
        print(text)
    else:
        out.write_text(text + "\n")


def _cmd_nc(args) -> int:
    from .ncpart import enumerate_nc, kreweras

    parts = enumerate_nc(args.n)
    if args.kreweras:
        payload = [
            {
                "partition": [list(b) for b in part.blocks],
                "kreweras": [list(b) for b in kreweras(part).blocks],
            }
            for part in parts
        ]
    else:
        payload = [[list(b) for b in part.blocks] for part in parts]
    _emit(payload, args.out)
    return 0


def _cmd_convolve(args) -> int:
    f = MomentSeries.from_dict(_read_json(args.f))
    if args.verb == "rtransform":
        result = r_transform(f)
    else:
        g = MomentSeries.from_dict(_read_json(args.g))
        op = {"boxed": boxed_conv, "boxplus": free_add_conv, "deconv": free_mult_deconv}
        result = op[args.verb](f, g)
    _emit(result.to_dict(), args.out)
    return 0


def _cmd_cw_moments(args) -> int:
    model = CwModel.from_dict(_read_json(args.model))
    _emit(cw_moments(model, args.order, args.backend).to_dict(), args.out)
    return 0


def _cmd_cw_recover(args) -> int:
    r = MomentSeries.from_dict(_read_json(args.r))
    _emit({"eigenvalues": list(cw_recover_eigenvalues(r, args.p, args.d))}, args.out)
    return 0


def _cmd_spn_moments(args) -> int:
    model = SpnModel.from_dict(_read_json(args.model))
    _emit(spn_moments(model, args.order, args.backend).to_dict(), args.out)
    return 0


def _cmd_spn_recover(args) -> int:
    m = MomentSeries.from_dict(_read_json(args.moments))
    report = spn_recover(m, args.p, args.d)
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_spn_density(args) -> int:
    import numpy as np

    from .subordination import spn_density

    model = SpnModel.from_dict(_read_json(args.model))
    grid = np.linspace(args.xmin, args.xmax, args.points)
    curve = spn_density(model, grid, epsilon=args.epsilon, tol=args.tol)
    lines = ["x,rho"] + [f"{x},{v}" for x, v in zip(curve.grid, curve.values)]
    csv_text = "\n".join(lines) + "\n"
    sidecar = {
        "mass": curve.mass,
        "epsilon": curve.epsilon,
        "max_residual": curve.max_residual,
        "max_iterations_used": curve.max_iterations,
        "fallback_points": curve.fallback_points,
        "rung_iterations": list(curve.rung_iterations),
    }
    if args.out is None:
        sys.stdout.write(csv_text)
        print(json.dumps(sidecar), file=sys.stderr)
    else:
        # the sidecar first: one that cannot be written leaves no CSV
        args.out.with_suffix(args.out.suffix + ".json").write_text(
            json.dumps(sidecar, indent=2) + "\n"
        )
        args.out.write_text(csv_text)
    return 0


def _cmd_simulate(args) -> int:
    from .randmat import (
        cw_sampler,
        empirical_spectrum,
        scale_cw_model,
        scale_spn_model,
        spn_sampler,
    )

    data = _read_json(args.model)
    if args.kind == "cw":
        model = scale_cw_model(CwModel.from_dict(data), args.dim_scale)
        predicted = cw_moments(model, args.order, FLOAT)
        sampler = cw_sampler(model, field=args.field)
    else:
        model = scale_spn_model(SpnModel.from_dict(data), args.dim_scale)
        predicted = spn_moments(model, args.order, FLOAT)
        sampler = spn_sampler(model, field=args.field)
    spectrum = empirical_spectrum(sampler, args.trials, args.order, args.seed)
    rel = [
        abs(e - p) / (abs(p) if p != 0 else 1.0)
        for e, p in zip(spectrum.moments, predicted.coeffs)
    ]
    if args.dump_eigs is not None:
        args.dump_eigs.write_text(
            "eigenvalue\n" + "\n".join(str(v) for v in spectrum.eigenvalues) + "\n"
        )
    _emit(
        {
            "empirical_moments": list(spectrum.moments),
            "predicted_moments": list(predicted.coeffs),
            "relative_errors": rel,
            "d": spectrum.d,
            "trials": spectrum.trials,
            "seed": args.seed,
        },
        args.out,
    )
    return 0


def _cmd_verify(args) -> int:
    model_a = SpnModel.from_dict(_read_json(args.a))
    model_b = SpnModel.from_dict(_read_json(args.b))
    report = verify_identifiability(model_a, model_b, args.order)
    _emit(report.to_dict(), args.out)
    return 0


_COMMANDS = {
    "nc": _cmd_nc,
    "convolve": _cmd_convolve,
    "cw-moments": _cmd_cw_moments,
    "cw-recover": _cmd_cw_recover,
    "spn-moments": _cmd_spn_moments,
    "spn-recover": _cmd_spn_recover,
    "spn-density": _cmd_spn_density,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def run(args: argparse.Namespace) -> int:
    """Dispatch one parsed invocation; returns the process exit status."""
    try:
        return _COMMANDS[args.subcommand](args)
    except FreeDeconvError as exc:
        payload = {"code": exc.code, "message": str(exc), "module": exc.module}
        print(json.dumps(payload), file=sys.stderr)
        return 1
    except BrokenPipeError:
        raise  # main ends a closed pipe with status 1 and no message
    except OSError as exc:
        # an input that cannot be read or an output that cannot be written
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"usage error: malformed JSON input ({exc})", file=sys.stderr)
        return 2


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _glue_negative_numbers(argv: list[str]) -> list[str]:
    """Join each flag and a negative number after it into --flag=value.

    argparse reads only plain decimals such as -0.001 as negative numbers;
    it would take -1e-3 or -inf for an option and report the flag's value
    missing, so the value would never reach the command's domain check.
    """
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if (flag.startswith("--") and len(flag) > 2 and "=" not in flag
                and token.startswith("-") and _is_number(token)):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    # exact moments of large models outgrow the default cap on the digits
    # an int may have when read from or written to JSON
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(
        _glue_negative_numbers(sys.argv[1:] if argv is None else list(argv))
    )
    if args.subcommand == "convolve" and args.verb != "rtransform" and args.g is None:
        parser.error(f"convolve {args.verb} needs --g")
    try:
        status = run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull, so that the
        # flush at exit cannot raise again (the recipe of the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
