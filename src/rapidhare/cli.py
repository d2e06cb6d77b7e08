"""Command-line entry point: train, predict, evaluate, bench, and synth.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .bench import BENCH_METHODS, run_bench
from .data import (
    ALL_LABELS,
    ActivityLabel,
    load_dataset,
    parse_recording,
    recording_chunks,
    write_dataset,
)
from .errors import DataError, NumericError
from .evaluation import EvalReport, run_cv
from .features import (
    DEFAULT_DIRECTIONAL_LAG,
    MAX_DIRECTIONAL_LAG,
    DirectionalConfig,
    FeatureConfig,
    directional_sources_by_name,
)
from .gmm import EmConfig, fit_activity_models, load_model_set, save_model_set
from .hmm import load_transition_matrix
from .predictor import BLOCK_ROWS, MAX_WINDOW_K, PredictorSession, naive_window_scores, posterior
from .synth import default_spec, generate, load_spec


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad channel list: {text!r}") from None


def _int_in(lo: int, hi: float = np.inf):
    """An argparse type for an integer in lo..hi; a non-integer is an "invalid int value"."""

    def int_in(text: str) -> int:
        if lo <= (value := int(text)) <= hi:
            return value
        bound = f"in {lo}..{hi}" if hi < np.inf else f"at least {lo}"
        raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")

    int_in.__name__ = "int"
    return int_in


def _parse_components(text: str) -> dict[ActivityLabel, int]:
    overrides = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        try:
            label = ActivityLabel[name.strip().upper()]
            overrides[label] = _int_in(1)(value)
        except (KeyError, ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(f"bad component override: {item!r}") from None
    return overrides


def _parse_df(text: str) -> dict:
    spec = {"lag": DEFAULT_DIRECTIONAL_LAG, "channels": None}
    for item in text.split(","):
        key, sep, value = item.partition("=")
        if key == "lag" and sep:
            try:
                spec["lag"] = _int_in(1, MAX_DIRECTIONAL_LAG)(value)
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad directional lag: {value!r}") from None
            except argparse.ArgumentTypeError as exc:
                raise argparse.ArgumentTypeError(f"directional lag {exc}") from None
        elif key == "channels" and sep:
            rest = text[text.index("channels=") + len("channels="):]
            spec["channels"] = _parse_indices(rest)
            break
        else:
            raise argparse.ArgumentTypeError(f"bad directional option: {item!r}")
    return spec


def _feature_config(args, channels) -> FeatureConfig:
    keep = getattr(args, "channels", None)
    df = getattr(args, "df", None)
    directional = None
    if df is not None:
        sources = df["channels"]
        if sources is None:
            if channels is None:
                raise DataError(
                    "streaming input has no channel names; pass --df channels=... explicitly"
                )
            sources = directional_sources_by_name(channels, keep)
        directional = DirectionalConfig(df["lag"], tuple(sources))
    return FeatureConfig(keep, directional)


def _em_config(args) -> EmConfig:
    return EmConfig(
        max_iters=args.em_iters, tol=args.em_tol, seed=args.seed,
        variance_floor=args.variance_floor, n_init_restarts=args.restarts,
    )


def _dataset_and_features(args):
    """The recordings in ``args.data_dir`` and their features, checked before any data line."""
    feat = None

    def check_features(channels):
        nonlocal feat
        feat = _feature_config(args, channels)
        feat.streamer(len(channels))  # checks --channels and the --df sources

    return load_dataset(args.data_dir, check_features), feat


def cmd_train(args) -> int:
    em_cfg = _em_config(args)
    if not (out_dir := Path(args.out).parent).is_dir():
        raise DataError(f"no such output directory: {out_dir}")
    if Path(args.out).is_dir():
        raise DataError(f"cannot write model file {args.out}: Is a directory")
    dataset, feat = _dataset_and_features(args)
    model_set, final_ll = fit_activity_models(
        [feat.apply(s) for s in dataset.sequences], args.components, em_cfg
    )
    save_model_set(model_set, args.out)
    for label in ALL_LABELS:
        print(f"{label.label_name}\t{final_ll[label]:.6f}")
    return 0


_LINE = "%d\t%s" + "\t%.8f" * len(ALL_LABELS)
_NAMES = [label.label_name for label in ALL_LABELS]
_SETTLED_CUT = 4e-9
_SETTLED_TAIL = [
    name + "".join("\t1.00000000" if j == b else "\t0.00000000" for j in range(len(_NAMES)))
    for b, name in enumerate(_NAMES)
]
# A best window score that leads every other by at least _SETTLED_GAP settles
# its row before any posterior is computed: each other posterior is at most
# e^-gap = _SETTLED_CUT / 7 < 5.8e-10 and the best at least 1 / (1 + _SETTLED_CUT),
# so %.8f prints the row as its label's _SETTLED_TAIL.
_SETTLED_GAP = math.log((len(ALL_LABELS) - 1) / _SETTLED_CUT)


def _write_predictions(first_index: int, scores: np.ndarray) -> None:
    """One line per row of window scores (index, label, posteriors), in one write.

    A row whose best score leads every other by at least ``_SETTLED_GAP``
    prints its label's ``_SETTLED_TAIL``. The block's posteriors are computed
    once, at its first row with a smaller lead, and only if it has one.
    """
    lines, probs = [], None
    for i, values in enumerate(scores.tolist(), first_index):
        ranked = sorted(values)
        b = values.index(ranked[-1])  # the first maximum, the one argmax picks
        if ranked[-1] - ranked[-2] >= _SETTLED_GAP:
            lines.append(f"{i}\t{_SETTLED_TAIL[b]}")
        else:
            if probs is None:
                probs = posterior(scores).tolist()
            lines.append(_LINE % (i, _NAMES[b], *probs[i - first_index]))
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


def _predict_stream(model_set, args) -> int:
    """Label each stdin line as it arrives, through one reused buffer per stage.

    A line's fields go straight into the frame row; numpy converts each with
    ``float()``, so the grammar is Python's. A byte that stdin's encoding
    cannot decode is read as a lone surrogate, which ``float()`` rejects.
    """
    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(errors="surrogateescape")
    feat = _feature_config(args, None)
    session = PredictorSession(model_set, args.window)
    streamer = row = features = None
    for lineno, line in enumerate(sys.stdin, 1):
        if line == "\n":
            continue
        fields = line.split("\t")  # float() ignores the last field's newline
        if row is None:  # the first frame sets the width
            row = np.empty((1, len(fields)))
        try:
            if len(fields) != row.shape[1]:
                [float(v) for v in fields]  # a non-numeric value is reported first
                raise DataError(
                    f"stdin:{lineno}: {len(fields)} values, the first frame had {row.shape[1]}"
                )
            row[0] = fields
        except ValueError:
            raise DataError(f"stdin:{lineno}: non-numeric frame value") from None
        if streamer is None:
            streamer = feat.streamer(row.shape[1])
        try:
            # The returned row is handed back as ``out``, so the directional
            # features reuse the buffer their first push allocated.
            features = streamer.push(row, features)
            scores = session.push_frame(features[0])
        except DataError as exc:
            raise DataError(f"stdin:{lineno}: {exc}") from None
        _write_predictions(session.frames_seen - 1, scores[None])
        sys.stdout.flush()
    return 0


def _predict_file(model_set, args) -> int:
    """Label a recording chunk by chunk; ``--oracle`` parses it whole on its own.

    Both check every setting against the recording's header before any data
    line is checked.
    """
    chunks = recording_chunks(args.input)
    channels = next(chunks)
    feat = _feature_config(args, channels)
    streamer = feat.streamer(len(channels))
    if streamer.dim != model_set.dim:
        raise DataError(
            f"{args.input}: model has {model_set.dim} dimensions, the features have {streamer.dim}"
        )
    if args.oracle:
        chunks.close()
        frames = feat.apply(parse_recording(args.input)).frames
        try:
            _write_predictions(0, naive_window_scores(model_set, frames, args.window))
        except DataError as exc:
            raise DataError(f"{args.input}: {exc}") from None
        return 0
    session = PredictorSession(model_set, args.window)
    for chunk in chunks:
        frames = streamer.push(chunk.frames)
        del chunk  # only its features are scored
        try:
            for lo in range(0, len(frames), BLOCK_ROWS):
                first = session.frames_seen
                _write_predictions(first, session.push_block(frames[lo : lo + BLOCK_ROWS]))
        except DataError as exc:
            raise DataError(f"{args.input}: {exc}") from None
        del frames  # before the next chunk is read
    return 0


def cmd_predict(args) -> int:
    model_set = load_model_set(args.model)
    # A frame too large to score is rejected with DataError; numpy's overflow
    # warnings on the way there would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        if args.input == "-":
            if args.oracle:
                raise DataError("--oracle needs a recording file, not streaming input")
            return _predict_stream(model_set, args)
        return _predict_file(model_set, args)


def _print_report(report: EvalReport, fmt: str, title: str) -> None:
    print(title)
    table = [["metric"] + _NAMES + ["average"]]
    for metric in ("recall", "precision", "f1", "accuracy"):
        values = [getattr(report.per_activity[l], metric) for l in ALL_LABELS]
        values.append(getattr(report.macro, metric))
        table.append([metric] + [f"{v:.2f}" if fmt == "table" else repr(v) for v in values])
    if fmt == "tsv":
        for row in table:
            print("\t".join(row))
    else:
        widths = [max(len(cell) for cell in column) for column in zip(*table)]
        for row in table:
            print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    print("confusion (rows true, columns predicted):")
    for row in report.confusion:
        print("\t".join(str(int(v)) for v in row))
    print()


def cmd_evaluate(args) -> int:
    em_cfg = _em_config(args)
    dataset, feat = _dataset_and_features(args)
    trans = load_transition_matrix(args.transitions) if args.transitions else None
    raw, tol = run_cv(
        dataset,
        counts=args.components,
        em_cfg=em_cfg,
        feat_cfg=feat,
        window_k=args.window,
        trans=trans,
        window_w=args.hmm_window,
        tolerance=args.tolerance,
        method=args.method,
    )
    _print_report(raw, args.format, f"== {args.method}, no border tolerance ==")
    _print_report(tol, args.format, f"== {args.method}, border tolerance {args.tolerance} frames ==")
    return 0


def cmd_bench(args) -> int:
    model_set = load_model_set(args.model)
    stats = run_bench(
        model_set, method=args.method, frames=args.frames, repeats=args.repeats,
        window_k=args.window, window_w=args.hmm_window, seed=args.seed,
    )
    fields = [
        ("method", stats.method),
        ("frames", stats.frames),
        ("repeats", stats.repeats),
        ("mean_us", f"{stats.mean_us:.3f}"),
        ("std_us", f"{stats.std_us:.3f}"),
        ("p99_us", f"{stats.p99_us:.3f}"),
    ]
    if args.format == "tsv":
        print("\t".join(str(k) for k, _ in fields))
        print("\t".join(str(v) for _, v in fields))
    else:
        for k, v in fields:
            print(f"{k}: {v}")
    return 0


def cmd_synth(args) -> int:
    if args.spec:
        spec = load_spec(args.spec)
    else:
        spec = default_spec(
            n_subjects=args.subjects,
            frames_per_subject=args.frames,
            dim=args.dim,
            min_segment=args.min_segment,
            seed=args.seed,
        )
    paths = write_dataset(generate(spec), args.out)
    print(f"wrote {len(paths)} recordings to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="rapidhare",
        description="Streaming activity recognition over rolling mixture log-likelihoods.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def seed_flag(p):
        p.add_argument("--seed", type=int, default=1, help="base random seed (default: 1)")

    def format_flag(p):
        p.add_argument(
            "--format", choices=("table", "tsv"), default="table",
            help="output layout (default: table)",
        )

    def em_flags(p):
        p.add_argument("--em-iters", type=int, default=200,
                       help="max EM iterations (default: 200)")
        p.add_argument("--em-tol", type=float, default=1e-6,
                       help="relative log-likelihood improvement to stop at (default: 1e-6)")
        p.add_argument("--restarts", type=int, default=1,
                       help="EM restarts, best final log-likelihood wins (default: 1)")
        p.add_argument("--variance-floor", type=float, default=1e-6,
                       help="minimum per-dimension variance (default: 1e-6)")
        p.add_argument("--components", type=_parse_components, default=None, metavar="NAME=K,...",
                       help="per-activity component overrides, e.g. sitting=2 "
                            "(defaults: walking=18 running=18 going_up=16 going_down=16 "
                            "sitting=2 sitting_down=7 standing_up=5 standing=4)")

    def feature_flags(p):
        p.add_argument("--channels", type=_parse_indices, default=None, metavar="I,J,...",
                       help="keep only these channel indices (default: all)")
        p.add_argument("--df", type=_parse_df, default=None, metavar="lag=15[,channels=I,J,...]",
                       help="append directional features; default lag 15, default sources are "
                            "the thigh accelerometer x/z channels found by name")

    p = sub.add_parser("train", help="fit per-activity mixtures and write a model file")
    p.add_argument("data_dir", help="directory of recording files")
    p.add_argument("--out", required=True, help="output model path")
    seed_flag(p)
    em_flags(p)
    feature_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label frames from a recording file or stdin")
    p.add_argument("input", help="recording file, or '-' for tab-separated frames on stdin")
    p.add_argument("--model", required=True, help="model file to load")
    p.add_argument("--window", type=_int_in(0, MAX_WINDOW_K), default=26,
                   help="context window look-back K (default: 26)")
    p.add_argument("--oracle", action="store_true",
                   help="batch reference path that recomputes each window from scratch")
    feature_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="leave-one-subject-out cross-validation")
    p.add_argument("data_dir", help="directory of recording files")
    p.add_argument("--method", choices=("rapidhare", "hmm"), default="rapidhare",
                   help="predictor to evaluate (default: rapidhare)")
    p.add_argument("--tolerance", type=_int_in(0), default=25,
                   help="border tolerance in frames (default: 25)")
    p.add_argument("--window", type=_int_in(0, MAX_WINDOW_K), default=26,
                   help="context window look-back K (default: 26)")
    p.add_argument("--hmm-window", type=_int_in(1), default=10,
                   help="Viterbi block length (default: 10)")
    p.add_argument("--transitions", default=None,
                   help="transition matrix file (default: built-in matrix)")
    seed_flag(p)
    format_flag(p)
    em_flags(p)
    feature_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="single-thread per-frame latency")
    p.add_argument("--model", required=True, help="model file to load")
    p.add_argument("--frames", type=int, default=2000,
                   help="stream length per pass (default: 2000)")
    p.add_argument("--repeats", type=int, default=5,
                   help="timed passes (default: 5)")
    p.add_argument("--method", choices=BENCH_METHODS, default="rapidhare",
                   help="predictor to time (default: rapidhare)")
    p.add_argument("--window", type=_int_in(0, MAX_WINDOW_K), default=26,
                   help="context window look-back K (default: 26)")
    p.add_argument("--hmm-window", type=_int_in(1), default=10,
                   help="Viterbi block length (default: 10)")
    seed_flag(p)
    format_flag(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--out", required=True, help="output directory for recording files")
    p.add_argument("--spec", default=None,
                   help="key-value spec file; when given, the flags below are ignored")
    p.add_argument("--subjects", type=int, default=3, help="subjects to draw (default: 3)")
    p.add_argument("--frames", type=int, default=20000,
                   help="frames per subject (default: 20000)")
    p.add_argument("--dim", type=int, default=6, help="channels per frame (default: 6)")
    p.add_argument("--min-segment", type=int, default=200,
                   help="minimum activity segment length in frames (default: 200)")
    seed_flag(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
