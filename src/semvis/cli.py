"""Command-line entry point.

Subcommands::

    semvis generate-data --out DIR --scenes N --seed S [--objects 2..3]
    semvis train --data DIR --out CKPT [--config FILE | flags] [--resume CKPT]
    semvis eval-retrieval --ckpt CKPT --data DIR [--folds N]
    semvis eval-pointing --ckpt CKPT --data DIR [--k INT]
    semvis localize --ckpt CKPT --image PATH --text "phrase" --out PREFIX

stdout carries only JSON reports; progress and warnings go to stderr.  Exit
codes: 0 success, 1 runtime failure, 2 usage error.  Every command is
deterministic given its flags.

`semvis train` takes one flag and one --config key per field of ``ModelConfig``
and ``TrainSchedule``, plus ``seed``; a checkpoint's header stores the same keys.
Flags override config-file keys, which override the dataclass defaults;
unknown config keys are rejected.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .autodiff import no_grad
from .data import CELLS, Dataset, SceneConfig, generate_dataset, read_dataset, write_dataset
from .errors import CheckpointError, ContractError, DegenerateInputError
from .evaluate import RetrievalReport, eval_pointing, eval_retrieval
from .localize import LocalizationConfig, activation_maps, heatmap, point, render_heatmap
from .model import Model, ModelConfig, coerce_number, setting_type, settings_from
from .ppm import overwrite, read_ppm
from .text import tokenize
from .train import AdamState, TrainSchedule, load_checkpoint, train

SEED_DEFAULT = 1
CORPUS_CHUNK = 64   # images or distinct captions per batched encode in evaluation
_SETTINGS = (*fields(ModelConfig), *fields(TrainSchedule))


def _merge_config(args: argparse.Namespace,
                  parser: argparse.ArgumentParser) -> tuple[ModelConfig, TrainSchedule, int]:
    """The dataclass defaults, overridden by the --config file, overridden by flags."""
    values = {}
    keys = [f.name for f in _SETTINGS] + ["seed"]
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                values = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:   # ValueError: bad UTF-8 or JSON
            parser.error(f"--config {args.config}: {exc}")
        if not isinstance(values, dict):
            parser.error(f"--config {args.config}: expected a JSON object")
        unknown = sorted(set(values) - set(keys))
        if unknown:
            parser.error(f"--config {args.config}: unknown keys {unknown}")
    values.update({k: getattr(args, k) for k in keys if getattr(args, k) is not None})
    try:
        return (settings_from(ModelConfig, values), settings_from(TrainSchedule, values),
                coerce_number("seed", values.get("seed", SEED_DEFAULT), minimum=0))
    except ValueError as exc:
        parser.error(f"bad configuration: {exc}")


def _parse_objects(spec: str) -> tuple[int, int]:
    lo, _, hi = spec.partition("..")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if hi else lo_i
    except ValueError:
        raise argparse.ArgumentTypeError(f"--objects expects N or N..M, got {spec!r}") from None
    if not 1 <= lo_i <= hi_i <= CELLS:
        raise argparse.ArgumentTypeError(
            f"--objects range {spec!r} is empty or outside 1..{CELLS} (one object per grid cell)")
    return lo_i, hi_i


def _encode_corpus(model: Model, dataset: Dataset):
    """Untracked eval-mode embeddings, CORPUS_CHUNK per batch; owners map captions to images."""
    scenes = dataset.scenes
    texts = list(dict.fromkeys(c for s in scenes for c in s.captions))   # templates repeat
    with no_grad():
        images = [model.encode_images([s.image for s in scenes[lo:lo + CORPUS_CHUNK]]).data
                  for lo in range(0, len(scenes), CORPUS_CHUNK)]
        distinct = [model.encode_texts(texts[lo:lo + CORPUS_CHUNK]).data
                    for lo in range(0, len(texts), CORPUS_CHUNK)]
    row = {text: i for i, text in enumerate(texts)}
    captions = np.concatenate(distinct)[[row[c] for s in scenes for c in s.captions]]
    owners = [i for i, s in enumerate(scenes) for _ in s.captions]
    return np.concatenate(images), captions, owners


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate_data(args, parser) -> int:
    if args.scenes < 0:
        parser.error(f"--scenes must be >= 0, got {args.scenes}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    lo, hi = args.objects
    cfg = SceneConfig(min_objects=lo, max_objects=hi)
    dataset = generate_dataset(args.scenes, args.seed, cfg)
    write_dataset(dataset, args.out)
    print(f"wrote {len(dataset.scenes)} scenes to {args.out}", file=sys.stderr)
    return 0


def cmd_train(args, parser) -> int:
    dataset = read_dataset(args.data)
    if args.resume:
        bundle = load_checkpoint(args.resume)
        model, state, sched, seed = bundle.model, bundle.opt_state, bundle.schedule, bundle.seed
        start_epoch = bundle.next_epoch
        if dataset.vocab != model.vocab:   # token ids would silently mean other words
            raise CheckpointError(f"{args.resume}: the vocabulary of {args.data} differs "
                                  "from the checkpoint's; cannot resume on it")
    else:
        cfg, sched, seed = _merge_config(args, parser)
        model = Model.initialize(cfg, dataset.vocab, seed)
        state = AdamState()
        start_epoch = 0

    train(model, dataset, sched, seed, state=state, start_epoch=start_epoch, out=args.out)
    print(f"checkpoint written to {args.out}", file=sys.stderr)
    return 0


def cmd_eval_retrieval(args, parser) -> int:
    model = load_checkpoint(args.ckpt).model
    dataset = read_dataset(args.data)
    n = len(dataset.scenes)
    if n == 0:
        raise ContractError(f"dataset {args.data} is empty: retrieval needs at least one scene")
    if not 1 <= args.folds <= n:
        parser.error(f"--folds must be between 1 and the image count {n}, got {args.folds}")
    images, captions, owners = _encode_corpus(model, dataset)
    bounds = np.linspace(0, n, args.folds + 1).astype(int)
    cap_reports, img_reports = [], []
    owners_arr = np.asarray(owners)
    for f in range(args.folds):
        lo, hi = bounds[f], bounds[f + 1]
        keep = (owners_arr >= lo) & (owners_arr < hi)
        sim = images[lo:hi] @ captions[keep].T
        cap_r, img_r = eval_retrieval(sim, owners_arr[keep] - lo)
        cap_reports.append(cap_r)
        img_reports.append(img_r)

    def averaged(reports):
        return RetrievalReport(reports[0].direction,
                               {r: float(np.mean([rep.r_at[r] for rep in reports]))
                                for r in reports[0].r_at},
                               float(np.mean([rep.median_rank for rep in reports]))).to_dict()

    print(json.dumps({"caption_retrieval": averaged(cap_reports),
                      "image_retrieval": averaged(img_reports)}, sort_keys=True))
    return 0


def cmd_eval_pointing(args, parser) -> int:
    model = load_checkpoint(args.ckpt).model
    k = args.k if args.k is not None else model.cfg.effective_top_k()
    if not 1 <= k <= model.cfg.embed_dim:
        parser.error(f"--k must be between 1 and the embedding size {model.cfg.embed_dim}, "
                     f"got {k}")
    dataset = read_dataset(args.data)
    report = eval_pointing(model, dataset.regions(), LocalizationConfig(top_k=k))
    out = report.to_dict()
    out["k"] = k
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_localize(args, parser) -> int:
    model = load_checkpoint(args.ckpt).model
    image = read_ppm(args.image)
    try:
        token_ids = tokenize(args.text, model.vocab)
    except DegenerateInputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if all(t == 0 for t in token_ids):
        print(f"warning: every word of {args.text!r} is out of vocabulary; "
              "localizing the <unk> embedding", file=sys.stderr)

    with no_grad():
        _, stack = model.pooled_features([image])
        embedding = model.encode_text(token_ids, training=False)
    maps = activation_maps(stack.data, model.params["proj.weight"].data)[0]
    heat = heatmap(maps, embedding.data, LocalizationConfig(top_k=model.cfg.effective_top_k()))
    px, py = point(heat, image.shape[1:])
    render_heatmap(heat, image, args.out)
    line = json.dumps({"x": px, "y": py, "heat_max": float(heat.max())}, sort_keys=True)
    overwrite(f"{args.out}.json", (line + "\n").encode("utf-8"))
    print(line)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with configuration keys (flags win)")
    for f in _SETTINGS:
        kind = setting_type(f)
        sub.add_argument("--" + f.name.replace("_", "-"), choices=f.metadata.get("choices"),
                         type=(lambda s: [int(c) for c in s.split(",")]) if kind is tuple else kind,
                         default=None, help=f"(default {f.default})")
    sub.add_argument("--seed", type=int, default=None, help=f"(default {SEED_DEFAULT})")


@functools.cache   # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semvis",
                                     description="joint image/text embedding at desk scale")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate-data", help="write a synthetic captioned-scene dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--scenes", type=int, required=True)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--objects", type=_parse_objects, default=(2, 3),
                     help="object count or range, e.g. 2 or 2..3")
    gen.set_defaults(func=cmd_generate_data)

    tr = subs.add_parser("train", help="train a model on a dataset directory")
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--resume", help="continue from a checkpoint (its stored config wins)")
    _add_config_flags(tr)
    tr.set_defaults(func=cmd_train)

    er = subs.add_parser("eval-retrieval", help="cross-modal retrieval report (JSON on stdout)")
    er.add_argument("--ckpt", required=True)
    er.add_argument("--data", required=True)
    er.add_argument("--folds", type=int, default=1)
    er.set_defaults(func=cmd_eval_retrieval)

    ep = subs.add_parser("eval-pointing", help="pointing game report (JSON on stdout)")
    ep.add_argument("--ckpt", required=True)
    ep.add_argument("--data", required=True)
    ep.add_argument("--k", type=int, default=None, help="override the number of maps used")
    ep.set_defaults(func=cmd_eval_pointing)

    loc = subs.add_parser("localize", help="heatmap + peak for a phrase in an image")
    loc.add_argument("--ckpt", required=True)
    loc.add_argument("--image", required=True)
    loc.add_argument("--text", required=True)
    loc.add_argument("--out", required=True, help="output prefix for .pgm/.ppm/.json")
    loc.set_defaults(func=cmd_localize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (OSError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
