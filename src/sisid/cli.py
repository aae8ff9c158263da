"""Command-line entry point.

    sisid run CONFIG [--outputs DIR]
    sisid validate CONFIG
    sisid sweep CONFIG --param NAME --values V1,V2,...
    sisid verify RUN_DIR

CONFIG is a flat key-value file (see sisid.config) or the name of a
bundled scenario (fig1, fig2, fig3_noisefree, fig3_noisy). The SISID_OUTPUT_ROOT
environment variable, when set, is prepended to every relative output
directory. sweep runs one variant per value, in order; variants in a row that
share (x0, beta, gamma, steps, noise) share one simulated trajectory and one
GRLS excitation pass. verify re-checks a run directory from its manifest: the
config echo parses back, its CSVs are the manifest's files and hash to their
sha256, and a rerun of the config gives the same files, status, errors,
settled and excitation blocks. It prints one line per difference and exits 0
on a match, 1 on a difference, and 2 when the manifest or its echo cannot be
read.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import (
    ConfigError,
    bundled_config_path,
    config_from_mapping,
    load_config,
    load_config_mapping,
    parse_config_text,
)
from .harness import _run_variants, run_experiment


def _resolve_config_path(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    return bundled_config_path(name)


def _resolve_output_dir(outputs: str) -> Path:
    root = os.environ.get("SISID_OUTPUT_ROOT")
    path = Path(outputs)
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(_resolve_config_path(args.config))
    out = _resolve_output_dir(args.outputs if args.outputs else config.outputs)
    result = run_experiment(config, output_dir=out)
    for err in result.manifest["errors"]:
        print(
            f"warning: {err['estimator']} hit a numerical error at step "
            f"{err['step']}: {err['message']}",
            file=sys.stderr,
        )
    print(f"wrote {len(result.manifest['files'])} trace file(s) to {result.output_dir}")
    return result.status


def _cmd_validate(args: argparse.Namespace) -> int:
    config = load_config(_resolve_config_path(args.config))
    print(f"ok: {args.config} ({len(config.estimators)} estimator(s), {config.steps} steps)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    mapping = load_config_mapping(_resolve_config_path(args.config))
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values: expected at least one value")
    # every variant's config is built, and so checked, before any runs, so a bad
    # value writes nothing (observation noise that overflows shows only in its run)
    configs = [config_from_mapping({**mapping, args.param: value}) for value in values]
    seen = {}  # each config's value, by its repr, which tells 0.0 from -0.0
    for value, config in zip(values, configs):
        key = repr(config)
        if key in seen:  # its run would repeat an earlier one's
            raise ConfigError(f"--values: duplicate value {value!r}, the config of {seen[key]!r}")
        seen[key] = value
    outs = [_resolve_output_dir(config.outputs) / f"{args.param.replace('.', '_')}={value}"
            for value, config in zip(values, configs)]
    # variants in a row with one trajectory share its simulation and excitation pass
    results = _run_variants(zip(configs, outs))
    status = 0
    for done, (value, out) in enumerate(zip(values, outs)):
        variant = f"{args.param}={value}"
        try:
            result = next(results)
        except (ConfigError, OSError) as exc:  # the variants already written stay on disk
            raise type(exc)(f"{variant}: {exc} ({done} of {len(values)} written)") from exc
        print(f"{variant}: status {result.status} -> {out}")
        status = max(status, result.status)
    return status


def _cmd_verify(args: argparse.Namespace) -> int:
    import hashlib  # here, so that the other commands do not import them
    import json
    import tempfile

    run_dir = Path(args.run_dir)
    path = run_dir / "manifest.json"
    try:  # a ConfigError, from the echo, is a ValueError
        manifest = json.loads(path.read_text())
        config = parse_config_text("".join(f"{k} = {v}\n" for k, v in manifest["config"].items()))
        listed = {f["name"]: f["sha256"] for f in manifest["files"]}
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path}: {type(exc).__name__}: {exc}") from None
    on_disk = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in run_dir.glob("*.csv")}
    with tempfile.TemporaryDirectory() as tmp:
        rerun = run_experiment(config, output_dir=tmp).manifest
    diffs = [
        f"{name}: sha256 {on_disk.get(name, 'none')} on disk, "
        f"{listed.get(name, 'none')} in the manifest"
        for name in sorted(on_disk.keys() | listed.keys()) if on_disk.get(name) != listed.get(name)
    ] + [
        f"{key}: {json.dumps(manifest.get(key))} in the manifest, "
        f"{json.dumps(rerun.get(key))} in the rerun"
        for key in ("files", "status", "errors", "settled", "excitation")
        if manifest.get(key) != rerun.get(key)
    ]
    print("\n".join(diffs) if diffs else f"ok: {run_dir} matches its manifest and a rerun")
    return 1 if diffs else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sisid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--outputs", default=None, help="override the output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config file without running it")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)

    p_sweep = sub.add_parser("sweep", help="run the config once per parameter value")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help="config key to vary (e.g. grls.alpha)")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="check a run directory by its manifest and a rerun")
    p_verify.add_argument("run_dir")
    p_verify.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
