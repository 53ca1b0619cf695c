"""Command-line pipeline driver.

Commands map one-to-one to the stages of ``pipeline.STAGES`` and share a
single YAML config; stages without options of their own are registered from
that table.
Exit codes: 0 success, 2 validation error, 3 missing input or an upstream
stage recorded under other settings, 4 provider failure."""

from __future__ import annotations

import logging
import math
import sys
from pathlib import Path

import click

from . import pipeline
from .config import dump_config, load_config
from .errors import HopbenchError
from .evaluation import MOCK_EVAL_BEHAVIORS

logger = logging.getLogger(__name__)


def _run(ctx: click.Context, runner, *args) -> None:
    """Run one stage, ``runner(run_dir, config, *args)``, and print its result."""
    obj = ctx.obj or {}
    if not obj.get("config_path") or not obj.get("run_dir"):
        raise click.UsageError("this command needs --config and --run-dir (pass them before the subcommand)")
    try:
        result = runner(Path(obj["run_dir"]), load_config(obj["config_path"]), *args)
    except HopbenchError as error:
        click.echo(f"error: {error}", err=True)
        sys.exit(error.exit_code)
    if result.status == "skipped":
        click.echo(f"{result.stage}: up to date (no-op)")
    else:
        click.echo(f"{result.stage}: ok {result.stats}")


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--run-dir", "run_dir", type=click.Path(file_okay=False), default=None)
@click.option("--verbose", is_flag=True)
@click.pass_context
def main(ctx: click.Context, config_path, run_dir, verbose: bool):
    """Corpus-to-benchmark pipeline: build the graph, synthesize items, evaluate models."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    ctx.ensure_object(dict)
    ctx.obj.update(config_path=config_path, run_dir=run_dir)


# Repeating --model or --mode runs the stage for each in one process, which
# decodes the inputs every model shares once (see `pipeline._stage`).
@main.command(help=pipeline.STAGES["evaluate"].help)
@click.option(
    "--model", "models", required=True, multiple=True,
    help=f"Chat model name, or mock:{{{','.join(MOCK_EVAL_BEHAVIORS)}}}; repeatable.",
)
@click.option(
    "--mode", "modes", type=click.Choice(["zero_shot", "rag"]), multiple=True, default=["zero_shot"],
    help="Repeatable; zero_shot by default.",
)
@click.pass_context
def evaluate(ctx, models: tuple[str, ...], modes: tuple[str, ...]):
    for model in models:
        for mode in modes:
            _run(ctx, pipeline.run_evaluate, model, mode)


@main.command(help=pipeline.STAGES["report"].help)
@click.option("--model", "models", required=True, multiple=True, help="Chat model name; repeatable.")
@click.pass_context
def report(ctx, models: tuple[str, ...]):
    for model in models:
        _run(ctx, pipeline.run_report, model)


def _parse_ks(_ctx, _param, spec: str) -> list[float | None]:
    """Comma-separated thresholds; "none", an empty token or any spelling of
    positive infinity ("inf", "infinity", "1e999") is None (no threshold). A
    token that is not a number, or a number below 1, is a usage error."""
    ks: list[float | None] = []
    for token in spec.split(","):
        token = token.strip().lower()
        if token in ("none", ""):
            ks.append(None)
            continue
        try:
            k = float(token)
            if math.isnan(k):
                raise ValueError(token)
        except ValueError:
            raise click.BadParameter(f"{token!r} is not a number") from None
        if k < 1:
            raise click.BadParameter(f"{token!r} is below 1: a k threshold must be >= 1 (or inf)")
        ks.append(None if k == math.inf else k)
    return ks


@main.command(name="shatter-sweep", help=pipeline.STAGES["shatter-sweep"].help)
@click.option(
    "--k", "ks", default="10,50,100,inf", show_default=True, callback=_parse_ks, help="Comma-separated thresholds."
)
@click.pass_context
def shatter_sweep(ctx, ks: list[float | None]):
    _run(ctx, pipeline.run_shatter_sweep, ks)


def _stage_command(stage: pipeline.Stage) -> None:
    runner = getattr(pipeline, "run_" + stage.name.replace("-", "_"))

    @main.command(name=stage.name, help=stage.help)
    @click.pass_context
    def command(ctx: click.Context):
        _run(ctx, runner)


# Every other stage takes no option of its own.
for _stage in pipeline.STAGES.values():
    if _stage.name not in main.commands:
        _stage_command(_stage)


@main.command(name="write-toy-config")
@click.argument("path", type=click.Path(dir_okay=False))
@click.option("--seed", type=int, default=7, show_default=True)
def write_toy_config(path: str, seed: int):
    """Write a config pointing at the bundled toy corpus (mock providers)."""
    from .toydata import toy_config

    dump_config(toy_config(seed=seed), path)
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
